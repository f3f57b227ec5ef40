//! NDJSON wire format: one JSON object per line, jobs in, results out.
//!
//! Job lines are parsed with the workspace's hand-rolled JSON reader
//! (`fpx_inject::json`) and results are rendered with the same escaping
//! the rest of the repo uses (`fpx_trace::export::json_escape`), so the
//! protocol shares the repo's byte-determinism: the same result always
//! encodes to the same line.

use crate::engine::{JobResult, Outcome};
use crate::job::JobSpec;
use fpx_inject::json::{self, Value};
use fpx_shadow::ShadowMode;
use fpx_sim::gpu::Arch;
use fpx_suite::runner::ToolKind;
use fpx_trace::export::json_escape;

/// A malformed job line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad job line: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Parse one NDJSON job line. Only `program` is required; every other
/// field defaults to the one-shot CLI's default.
///
/// `{"program":"LU","tool":"detector","arch":"ampere","fast_math":false,
///   "k":0,"gt":true,"device_check":true,"json":false}`
pub fn parse_job(line: &str) -> Result<JobSpec, ProtoError> {
    let v = json::parse(line).map_err(|e| ProtoError(e.to_string()))?;
    let mut spec = JobSpec {
        program: v
            .get("program")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtoError("missing \"program\"".into()))?
            .to_string(),
        ..JobSpec::default()
    };
    if let Some(t) = v.get("tool") {
        let label = t
            .as_str()
            .ok_or_else(|| ProtoError("\"tool\" must be a string".into()))?;
        spec.tool =
            ToolKind::parse(label).ok_or_else(|| ProtoError(format!("unknown tool {label:?}")))?;
    }
    if let Some(a) = v.get("arch") {
        spec.arch = match a.as_str() {
            Some("turing") => Arch::Turing,
            Some("ampere") => Arch::Ampere,
            other => {
                return Err(ProtoError(format!(
                    "\"arch\": turing|ampere, got {other:?}"
                )))
            }
        };
    }
    if let Some(b) = v.get("fast_math") {
        spec.fast_math =
            as_bool(b).ok_or_else(|| ProtoError("\"fast_math\" must be a bool".into()))?;
    }
    if let Some(n) = v.get("k") {
        spec.freq_redn_factor =
            n.as_u64()
                .ok_or_else(|| ProtoError("\"k\" must be a number".into()))? as u32;
    }
    if let Some(b) = v.get("gt") {
        spec.use_gt = as_bool(b).ok_or_else(|| ProtoError("\"gt\" must be a bool".into()))?;
    }
    if let Some(b) = v.get("device_check") {
        spec.device_checking =
            as_bool(b).ok_or_else(|| ProtoError("\"device_check\" must be a bool".into()))?;
    }
    if let Some(b) = v.get("json") {
        spec.json = as_bool(b).ok_or_else(|| ProtoError("\"json\" must be a bool".into()))?;
    }
    if let Some(b) = v.get("chains_dot") {
        spec.chains_dot =
            as_bool(b).ok_or_else(|| ProtoError("\"chains_dot\" must be a bool".into()))?;
    }
    if let Some(m) = v.get("shadow_mode") {
        let label = m
            .as_str()
            .ok_or_else(|| ProtoError("\"shadow_mode\" must be a string".into()))?;
        spec.shadow_mode = ShadowMode::parse(label)
            .ok_or_else(|| ProtoError(format!("unknown shadow mode {label:?}")))?;
    }
    if let Some(n) = v.get("shadow_ulp") {
        spec.shadow_ulp_budget = n
            .as_f64()
            .ok_or_else(|| ProtoError("\"shadow_ulp\" must be a number".into()))?;
    }
    if let Some(n) = v.get("shadow_cancel") {
        spec.shadow_cancel_threshold = n
            .as_u64()
            .ok_or_else(|| ProtoError("\"shadow_cancel\" must be a number".into()))?
            as u32;
    }
    Ok(spec)
}

/// Encode a job spec as one NDJSON line (no trailing newline). Always
/// emits every field — a decoded line round-trips exactly.
pub fn encode_job(spec: &JobSpec) -> String {
    format!(
        "{{\"program\":\"{}\",\"tool\":\"{}\",\"arch\":\"{}\",\"fast_math\":{},\
         \"k\":{},\"gt\":{},\"device_check\":{},\"json\":{},\"chains_dot\":{},\
         \"shadow_mode\":\"{}\",\"shadow_ulp\":{},\"shadow_cancel\":{}}}",
        json_escape(&spec.program),
        spec.tool.label(),
        match spec.arch {
            Arch::Turing => "turing",
            Arch::Ampere => "ampere",
        },
        spec.fast_math,
        spec.freq_redn_factor,
        spec.use_gt,
        spec.device_checking,
        spec.json,
        spec.chains_dot,
        spec.shadow_mode.label(),
        spec.shadow_ulp_budget,
        spec.shadow_cancel_threshold,
    )
}

/// Encode a result as one NDJSON line (no trailing newline).
pub fn encode_result(r: &JobResult) -> String {
    let head = format!(
        "{{\"id\":{},\"program\":\"{}\"",
        r.id,
        json_escape(&r.program)
    );
    match &r.outcome {
        Outcome::Done { cache_hit, output } => format!(
            "{head},\"status\":\"ok\",\"cache\":\"{}\",\"output\":\"{}\"}}",
            if *cache_hit { "hit" } else { "miss" },
            json_escape(output),
        ),
        Outcome::Rejected(msg) => format!(
            "{head},\"status\":\"rejected\",\"error\":\"{}\"}}",
            json_escape(msg)
        ),
        Outcome::Error(msg) => format!(
            "{head},\"status\":\"error\",\"error\":\"{}\"}}",
            json_escape(msg)
        ),
    }
}

/// A decoded result line, as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultLine {
    pub id: u64,
    pub program: String,
    /// `"ok"`, `"rejected"`, or `"error"`.
    pub status: String,
    /// `Some(true)` = served from cache; `None` for non-ok results.
    pub cache_hit: Option<bool>,
    /// The rendered report for ok results.
    pub output: Option<String>,
    /// The failure message otherwise.
    pub error: Option<String>,
}

/// Parse one NDJSON result line.
pub fn parse_result(line: &str) -> Result<ResultLine, ProtoError> {
    let v = json::parse(line).map_err(|e| ProtoError(e.to_string()))?;
    let need_str = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ProtoError(format!("missing \"{k}\"")))
    };
    Ok(ResultLine {
        id: v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtoError("missing \"id\"".into()))?,
        program: need_str("program")?,
        status: need_str("status")?,
        cache_hit: v.get("cache").and_then(Value::as_str).map(|c| c == "hit"),
        output: v.get("output").and_then(Value::as_str).map(str::to_string),
        error: v.get("error").and_then(Value::as_str).map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_line_round_trips_and_defaults_apply() {
        let spec = JobSpec {
            program: "LU".into(),
            tool: ToolKind::Analyzer,
            arch: Arch::Turing,
            fast_math: true,
            freq_redn_factor: 16,
            use_gt: false,
            device_checking: false,
            json: true,
            chains_dot: true,
            shadow_mode: ShadowMode::Rpc,
            shadow_ulp_budget: 0.5,
            shadow_cancel_threshold: 12,
        };
        assert_eq!(parse_job(&encode_job(&spec)).unwrap(), spec);
        let minimal = parse_job("{\"program\":\"LU\"}").unwrap();
        assert_eq!(
            minimal,
            JobSpec {
                program: "LU".into(),
                ..JobSpec::default()
            }
        );
    }

    #[test]
    fn bad_job_lines_are_typed_errors() {
        assert!(parse_job("{}").unwrap_err().0.contains("program"));
        assert!(parse_job("not json").is_err());
        assert!(parse_job("{\"program\":\"LU\",\"tool\":\"nope\"}")
            .unwrap_err()
            .0
            .contains("unknown tool"));
    }

    #[test]
    fn result_line_round_trips_with_multiline_output() {
        let r = JobResult {
            id: 3,
            program: "LU".into(),
            outcome: Outcome::Done {
                cache_hit: true,
                output: "line one\nline \"two\"\n".into(),
            },
        };
        let parsed = parse_result(&encode_result(&r)).unwrap();
        assert_eq!(parsed.status, "ok");
        assert_eq!(parsed.cache_hit, Some(true));
        assert_eq!(parsed.output.as_deref(), Some("line one\nline \"two\"\n"));
        let err = JobResult {
            id: 4,
            program: "LU".into(),
            outcome: Outcome::Rejected("queue full (2/2)".into()),
        };
        let parsed = parse_result(&encode_result(&err)).unwrap();
        assert_eq!(parsed.status, "rejected");
        assert_eq!(parsed.error.as_deref(), Some("queue full (2/2)"));
    }
}
