//! Output checks. A run that fails any of them counts as failed.

use airdnd_scenario::{validate_spans, Phase, RunTelemetry, ScenarioReport};

/// Report invariants that hold for every correct run.
pub fn report_invariants(r: &ScenarioReport) -> Result<(), String> {
    if r.tasks_submitted == 0 {
        return Err("no perception query was submitted".to_owned());
    }
    if r.tasks_completed + r.tasks_failed > r.tasks_submitted {
        return Err(format!(
            "completed {} + failed {} exceeds submitted {}",
            r.tasks_completed, r.tasks_failed, r.tasks_submitted
        ));
    }
    if !(0.0..=1.0).contains(&r.completion_rate) {
        return Err(format!("completion {} outside [0, 1]", r.completion_rate));
    }
    Ok(())
}

/// Checks only a traced run can fail: its span log must validate and every
/// engine phase must have been entered.
pub fn traced_invariants(telemetry: &RunTelemetry) -> Result<(), String> {
    validate_spans(telemetry.spans.spans()).map_err(|e| format!("span log invalid: {e}"))?;
    if telemetry.spans.is_empty() {
        return Err("traced run recorded no spans".to_owned());
    }
    for phase in Phase::ALL {
        if telemetry.phases.entries(phase) == 0 {
            return Err(format!("phase {phase} was never attributed"));
        }
    }
    Ok(())
}

/// Compares one run's serialised report with the first run of its seed.
/// The first call for a seed records the reference.
pub fn same_as_first(
    reference: &mut Option<String>,
    report: &ScenarioReport,
) -> Result<(), String> {
    let text = serde_json::to_string(report).map_err(|e| format!("report serialisation: {e}"))?;
    match reference {
        None => {
            *reference = Some(text);
            Ok(())
        }
        Some(first) if *first == text => Ok(()),
        Some(_) => Err("report differs from the first run of its seed".to_owned()),
    }
}
