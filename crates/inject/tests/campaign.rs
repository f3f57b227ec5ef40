//! End-to-end campaign tests on real suite programs: determinism across
//! thread counts, miss repro lines, replay plan fidelity, and trace
//! capture of injected executions.

use fpx_inject::{
    enumerate_sites, record_trial_trace, replay_plan, replay_trial, run_campaign, CampaignConfig,
    FaultKind, FaultSpec, Outcome,
};
use fpx_suite::runner::ToolKind;
use fpx_trace::Trace;

fn smoke_programs() -> Vec<fpx_suite::Program> {
    fpx_suite::campaign_preset("smoke")
        .unwrap()
        .into_iter()
        .map(|n| fpx_suite::find(n).unwrap())
        .collect()
}

fn smoke_config(seed: u64, trials: u32, threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        trials,
        threads,
        ..CampaignConfig::default()
    }
}

#[test]
fn campaign_json_is_byte_identical_across_thread_counts() {
    let programs = smoke_programs();
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    let a = run_campaign(&refs, &smoke_config(7, 10, 1)).unwrap();
    let b = run_campaign(&refs, &smoke_config(7, 10, 4)).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    // And a re-run with identical config is bitwise identical too.
    let c = run_campaign(&refs, &smoke_config(7, 10, 1)).unwrap();
    assert_eq!(a.to_json(), c.to_json());
}

#[test]
fn oracle_positive_faults_are_scored_and_misses_carry_repro_lines() {
    let programs = smoke_programs();
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    let report = run_campaign(&refs, &smoke_config(11, 16, 1)).unwrap();
    assert_eq!(report.results.len(), 16);
    // The seeded plan must land some oracle-positive faults, and the
    // detector must catch NaN/INF injections (the acceptance class).
    let summary = report.summary();
    let det = &summary[0];
    assert!(det.oracle_positive > 0, "no oracle-positive faults drawn");
    if det.nan_inf_positive > 0 {
        assert!(
            det.nan_inf_rate() >= 0.95,
            "detector caught {}/{} injected NaN/INF faults",
            det.nan_inf_detected,
            det.nan_inf_positive
        );
    }
    // Every miss (any backend) carries a replayable repro line.
    for m in report.misses() {
        assert!(m.repro.contains(&format!("--seed {}", report.seed)));
        assert!(m.repro.contains(&format!("--trial {}", m.trial)));
    }
    // The matrix accounts for every scored fault exactly once per backend.
    let matrix = report.matrix();
    let matrix_faults: u64 = matrix.values().map(|cells| cells[0].faults).sum();
    let total_faults: u64 = report.results.iter().map(|t| t.faults.len() as u64).sum();
    assert_eq!(matrix_faults, total_faults);
}

#[test]
fn replay_rederives_the_campaign_trial_plan() {
    let programs = smoke_programs();
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    let cfg = smoke_config(23, 6, 1);
    let report = run_campaign(&refs, &cfg).unwrap();
    for t in &report.results {
        let (pi, faults) = replay_plan(&refs, &cfg, t.trial).unwrap();
        assert_eq!(refs[pi].name, t.program);
        assert_eq!(faults.len(), t.faults.len());
        for (planned, scored) in faults.iter().zip(&t.faults) {
            assert_eq!(planned.0, scored.spec);
        }
        // Replaying the trial reproduces the recorded outcomes.
        let replayed = replay_trial(refs[pi], &cfg, t.trial, &faults).unwrap();
        for (a, b) in replayed.faults.iter().zip(&t.faults) {
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.fired, b.fired);
        }
    }
}

#[test]
fn injected_trials_record_to_replayable_traces() {
    let programs = smoke_programs();
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    let cfg = smoke_config(42, 4, 1);
    // Find a trial with a fault that actually fires.
    let report = run_campaign(&refs, &cfg).unwrap();
    let t = report
        .results
        .iter()
        .find(|t| t.faults.iter().any(|f| f.fired > 0))
        .expect("no fault fired in 4 trials");
    let (pi, faults) = replay_plan(&refs, &cfg, t.trial).unwrap();
    let trace = record_trial_trace(refs[pi], &cfg, &faults).unwrap();
    assert!(!trace.launches.is_empty());
    assert!(trace.launches.iter().any(|l| !l.visits.is_empty()));
    // The capture round-trips through the wire format bit-exactly.
    assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
}

#[test]
fn shadow_backend_detects_silent_precision_faults() {
    // A p-flip perturbs low-order mantissa bits only: the oracle mask is
    // empty, so every exception backend scores it Benign by construction.
    // The shadow backend compares the mutated writeback against its FP64
    // shadow and must flag the divergence at the fault's own site.
    let p = fpx_suite::find("GRAMSCHM").unwrap();
    let cfg = CampaignConfig {
        backends: vec![ToolKind::Detector, ToolKind::Shadow],
        precision_faults: true,
        ..CampaignConfig::default()
    };
    let mut mem = fpx_sim::mem::DeviceMemory::default();
    let plan = p.prepare(&cfg.opts, &mut mem);
    let sites = enumerate_sites(&plan);
    // One p-flip on every FADD site: some land on values that are
    // already exceptional (GRAMSCHM raises NaNs) or on ±0.0 (where a
    // mantissa flip mints a subnormal) — the assertion targets the
    // faults whose oracle mask stayed empty, i.e. the truly silent ones.
    let faults: Vec<_> = sites
        .iter()
        .filter(|s| s.sass.starts_with("FADD"))
        .map(|s| {
            (
                FaultSpec {
                    site: s.id,
                    kind: FaultKind::PrecisionFlip,
                    bit: 3,
                    launch: None,
                },
                s.clone(),
            )
        })
        .collect();
    assert!(!faults.is_empty(), "GRAMSCHM has no FP32 FADD site");
    let t = replay_trial(&p, &cfg, 0, &faults).unwrap();
    let silent: Vec<_> = t
        .faults
        .iter()
        .filter(|f| f.fired > 0 && f.oracle.is_empty())
        .collect();
    assert!(!silent.is_empty(), "no planted p-flip stayed silent");
    for f in &silent {
        assert_eq!(
            f.outcomes,
            vec![Outcome::Benign, Outcome::Detected],
            "site {} ({}): detector must see nothing, shadow must flag it",
            f.spec.site,
            f.sass
        );
    }
}

#[test]
fn precision_faults_off_keeps_seeded_plans_stable() {
    // The precision_faults gate must not disturb the existing seeded
    // draw sequence: plans with it off are identical to the pre-p-flip
    // planner, and no p-flip ever appears.
    let programs = smoke_programs();
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    let cfg = smoke_config(7, 10, 1);
    for trial in 0..10 {
        let (_, faults) = replay_plan(&refs, &cfg, trial).unwrap();
        assert!(
            faults
                .iter()
                .all(|(s, _)| s.kind != FaultKind::PrecisionFlip),
            "trial {trial} drew a p-flip with the gate off"
        );
    }
}

#[test]
fn multi_fault_misses_shrink_to_culprits() {
    let programs = smoke_programs();
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    // Enough trials that some multi-fault trial misses somewhere (the
    // analyzer's flow-state scoring misses more than the detector).
    let report = run_campaign(&refs, &smoke_config(5, 24, 1)).unwrap();
    let multi_missed: Vec<_> = report
        .results
        .iter()
        .filter(|t| {
            t.faults.len() >= 2
                && t.faults
                    .iter()
                    .any(|f| f.outcomes.contains(&Outcome::Missed))
        })
        .collect();
    for t in &multi_missed {
        let sh = report
            .shrinks
            .iter()
            .find(|s| s.trial == t.trial)
            .expect("missed multi-fault trial has no shrink result");
        assert!(!sh.culprits.is_empty());
        assert!(sh.culprits.len() <= t.faults.len());
        // Culprit sites come from the trial's own fault set.
        for c in &sh.culprits {
            assert!(t.faults.iter().any(|f| f.spec.site == *c));
        }
    }
}
