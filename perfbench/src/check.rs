//! Known answers every workload checks its outputs against.

use fpx_serve::job::{JobSpec, JobTool};

/// The detector row a clean program must report.
const CLEAN_ROW: &str = "row: [0, 0, 0, 0, 0, 0, 0, 0]";

/// Check a rendered `suite run` report: a Table-4 program's detector
/// row at k = 0 must match the paper's Table 4, and a clean program must
/// report no exception under any tool.
pub fn rendered(spec: &JobSpec, text: &str) -> Result<(), String> {
    let row = text.lines().find(|l| l.starts_with("row: "));
    match (spec.tool, fpx_suite::expected::expected_row(&spec.program)) {
        (JobTool::Detector, Some(want)) if spec.freq_redn_factor == 0 => {
            let want = format!("row: {want:?}");
            expect(spec, row == Some(want.as_str()), &want, row)
        }
        (JobTool::Detector | JobTool::BinFpe, None) => {
            expect(spec, row == Some(CLEAN_ROW), CLEAN_ROW, row)
        }
        (JobTool::Analyzer, None) => {
            let flows = text.lines().find(|l| l.starts_with("flow states: "));
            expect(
                spec,
                flows == Some("flow states: {}"),
                "flow states: {}",
                flows,
            )
        }
        _ => Ok(()),
    }
}

/// Check the detector row of a replayed Table-4 program at k = 0.
pub fn table4_row(program: &str, row: [u32; 8]) -> Result<(), String> {
    match fpx_suite::expected::expected_row(program) {
        Some(want) if want != row => Err(format!("{program}: row {row:?}, Table 4 says {want:?}")),
        Some(_) => Ok(()),
        None if row.iter().any(|&n| n > 0) => {
            Err(format!("{program}: clean program reports {row:?}"))
        }
        None => Ok(()),
    }
}

fn expect(spec: &JobSpec, ok: bool, want: &str, got: Option<&str>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} {} k={}: expected {want:?}, got {:?}",
            spec.program,
            spec.tool.label(),
            spec.freq_redn_factor,
            got.unwrap_or("nothing")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(program: &str, tool: JobTool, k: u32) -> JobSpec {
        JobSpec {
            program: program.into(),
            tool,
            freq_redn_factor: k,
            ..JobSpec::default()
        }
    }

    #[test]
    fn table4_rows_and_clean_programs_are_checked() {
        let lu = "LU: baseline ...\nrow: [0, 0, 0, 0, 3, 0, 0, 1]\n";
        assert!(rendered(&spec("LU", JobTool::Detector, 0), lu).is_ok());
        let wrong = "row: [0, 0, 0, 0, 2, 0, 0, 1]\n";
        assert!(rendered(&spec("LU", JobTool::Detector, 0), wrong).is_err());
        // Sampling may miss sites: k > 0 rows are not Table 4's.
        assert!(rendered(&spec("LU", JobTool::Detector, 64), wrong).is_ok());
        let clean = "hotspot: ...\nrow: [0, 0, 0, 0, 0, 0, 0, 0]\n";
        assert!(rendered(&spec("hotspot", JobTool::BinFpe, 0), clean).is_ok());
        assert!(rendered(&spec("hotspot", JobTool::Detector, 16), lu).is_err());
        assert!(rendered(&spec("hotspot", JobTool::Analyzer, 0), "flow states: {}\n").is_ok());
        assert!(rendered(&spec("hotspot", JobTool::Analyzer, 0), clean).is_err());
        assert!(table4_row("LU", [0, 0, 0, 0, 3, 0, 0, 1]).is_ok());
        assert!(table4_row("LU", [0; 8]).is_err());
        assert!(table4_row("hotspot", [0, 1, 0, 0, 0, 0, 0, 0]).is_err());
    }
}
