//! Export: Chrome trace-format JSON from a recorded trace.
//!
//! The output loads in `about:tracing` / Perfetto: one *process* per
//! kernel launch, one *thread* (track) per logical SM, a duration slice
//! (`ph:"X"`) per thread block, and an instant event (`ph:"i"`) per
//! exceptional instrumented-instruction visit. Timestamps are simulated
//! cycles presented as microseconds (the trace format has no "cycles"
//! unit; the shapes, not the absolute times, are the point).
//!
//! Blocks are assigned to SM tracks greedily — each block goes to the
//! track that frees up first — which is the same abstract model the
//! simulator's thread-per-SM worker pool uses.
//!
//! JSON is hand-rolled: the vendored offline `serde` stand-in carries no
//! serializer (see `fpx_bench::json_str` for the precedent).

use crate::format::Trace;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `trace` as Chrome trace-format JSON with `sm_tracks` logical
/// SM timelines (clamped to at least 1).
pub fn chrome_trace(trace: &Trace, sm_tracks: usize) -> String {
    let sm_tracks = sm_tracks.max(1);
    let mut events: Vec<String> = Vec::new();
    let mut launch_ts = 0u64; // launches execute back-to-back

    for (li, lt) in trace.launches.iter().enumerate() {
        let kname = trace
            .kernels
            .get(lt.kernel as usize)
            .map(|k| k.name.as_str())
            .unwrap_or("?");
        events.push(format!(
            r#"{{"ph":"M","name":"process_name","pid":{li},"args":{{"name":"launch {li}: {}"}}}}"#,
            json_escape(kname)
        ));
        let tracks = sm_tracks.min(lt.block_cycles.len().max(1));
        for t in 0..tracks {
            events.push(format!(
                r#"{{"ph":"M","name":"thread_name","pid":{li},"tid":{t},"args":{{"name":"SM {t}"}}}}"#
            ));
        }

        // Greedy SM assignment: each block starts on the earliest-free
        // track. Remember each block's (track, start) for instant events.
        let mut track_free = vec![launch_ts; tracks];
        let mut block_slice: Vec<(usize, u64, u64)> = Vec::with_capacity(lt.block_cycles.len());
        for (block, &cycles) in lt.block_cycles.iter().enumerate() {
            let t = (0..tracks)
                .min_by_key(|&t| track_free[t])
                .expect("at least one track");
            let start = track_free[t];
            track_free[t] = start + cycles.max(1);
            block_slice.push((t, start, cycles.max(1)));
            events.push(format!(
                r#"{{"ph":"X","name":"block {block}","pid":{li},"tid":{t},"ts":{start},"dur":{},"args":{{"cycles":{cycles}}}}}"#,
                cycles.max(1)
            ));
        }

        // Exceptional visits as instant events, spread across their
        // block's slice in visit order.
        let mut per_block: Vec<Vec<crate::format::Visit<'_>>> =
            vec![Vec::new(); lt.block_cycles.len()];
        for v in lt.visits.iter() {
            if v.exceptional {
                if let Some(bucket) = per_block.get_mut(v.block as usize) {
                    bucket.push(v);
                }
            }
        }
        for (block, visits) in per_block.iter().enumerate() {
            let Some(&(t, start, dur)) = block_slice.get(block) else {
                continue;
            };
            let n = visits.len() as u64;
            for (j, v) in visits.iter().enumerate() {
                let ts = start + (j as u64 + 1) * dur / (n + 1);
                events.push(format!(
                    r#"{{"ph":"i","name":"exception","pid":{li},"tid":{t},"ts":{ts},"s":"t","args":{{"pc":{},"block":{},"warp":{}}}}}"#,
                    v.pc, v.block, v.warp
                ));
            }
        }

        launch_ts = track_free.into_iter().max().unwrap_or(launch_ts) + 1;
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"program\":\"{}\",\"format\":\"fpx-trace v{}\"}}}}\n",
        events.join(",\n"),
        json_escape(&trace.program),
        crate::format::VERSION
    )
}

/// Render a profiler snapshot as Chrome trace-format JSON.
///
/// Two process groups: pid 0 holds one track per phase (a single slice
/// `[0, cycles]` each — the decomposition, not a timeline), pid 1 holds
/// one track per kernel with its launch phases laid end to end in
/// pipeline order. Timestamps are modeled cycles, so the output is
/// byte-identical across `--threads` settings, like the JSON profile.
pub fn prof_chrome_trace(snap: &fpx_prof::ProfSnapshot) -> String {
    use fpx_prof::{Phase, KERNEL_PHASES};

    let mut events: Vec<String> = Vec::new();
    events.push(r#"{"ph":"M","name":"process_name","pid":0,"args":{"name":"phases"}}"#.into());
    for (tid, p) in Phase::ALL.iter().enumerate() {
        let st = snap.get(*p);
        if st.count == 0 && st.cycles == 0 {
            continue;
        }
        events.push(format!(
            r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{tid},"args":{{"name":"{}"}}}}"#,
            p.name()
        ));
        events.push(format!(
            r#"{{"ph":"X","name":"{}","pid":0,"tid":{tid},"ts":0,"dur":{},"args":{{"count":{},"cycles":{}}}}}"#,
            p.name(),
            st.cycles.max(1),
            st.count,
            st.cycles
        ));
    }

    events.push(r#"{"ph":"M","name":"process_name","pid":1,"args":{"name":"kernels"}}"#.into());
    let names: Vec<&str> = snap.kernel_names().collect();
    for (tid, kname) in names.iter().enumerate() {
        events.push(format!(
            r#"{{"ph":"M","name":"thread_name","pid":1,"tid":{tid},"args":{{"name":"{}"}}}}"#,
            json_escape(kname)
        ));
        let mut ts = 0u64;
        for p in KERNEL_PHASES {
            let cycles = snap.kernel_cycles(kname, p);
            if cycles == 0 {
                continue;
            }
            events.push(format!(
                r#"{{"ph":"X","name":"{}","pid":1,"tid":{tid},"ts":{ts},"dur":{cycles},"args":{{"cycles":{cycles}}}}}"#,
                p.name()
            ));
            ts += cycles;
        }
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"format\":\"fpx-prof\"}}}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{KernelMeta, LaunchTrace, Visit, Visits};
    use fpx_sim::gpu::Arch;
    use fpx_sim::hooks::When;

    fn two_block_trace() -> Trace {
        let mut visits = Visits::default();
        visits.push(Visit {
            pc: 1,
            when: When::After,
            block: 1,
            warp: 0,
            exec_mask: 1,
            guarded_mask: 1,
            exceptional: true,
            values: &[0x7fc0_0000],
        });
        Trace {
            arch: Arch::Ampere,
            fast_math: false,
            program: "unit \"quoted\"".into(),
            kernels: vec![KernelMeta {
                name: "k".into(),
                num_regs: 8,
                num_instrs: 3,
                checksum: 1,
            }],
            launches: vec![LaunchTrace {
                kernel: 0,
                plain_cycles: 100,
                block_cycles: vec![60, 40],
                visits,
            }],
        }
    }

    #[test]
    fn emits_slices_and_instants() {
        let json = chrome_trace(&two_block_trace(), 4);
        assert!(json.contains(r#""ph":"X","name":"block 0""#));
        assert!(json.contains(r#""ph":"X","name":"block 1""#));
        assert!(json.contains(r#""ph":"i","name":"exception""#));
        assert!(json.contains(r#"unit \"quoted\""#));
        // Two blocks on distinct tracks when tracks are plentiful.
        assert!(json.contains(r#""tid":0"#) && json.contains(r#""tid":1"#));
    }

    #[test]
    fn single_track_serializes_blocks() {
        let json = chrome_trace(&two_block_trace(), 1);
        // Block 1 starts after block 0's 60 cycles on the same track.
        assert!(json.contains(r#""tid":0,"ts":60,"dur":40"#), "{json}");
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prof_chrome_trace_emits_phase_and_kernel_tracks() {
        use fpx_prof::{Phase, Prof};
        let prof = Prof::enabled();
        prof.record(Phase::Exec, 1, 100);
        prof.record(Phase::Hook, 4, 40);
        prof.kernel_cycles("vecAdd", Phase::Exec, 100);
        prof.kernel_cycles("vecAdd", Phase::Hook, 40);
        let json = prof_chrome_trace(&prof.snapshot().expect("enabled"));
        assert!(json.contains(r#""name":"exec","pid":0"#), "{json}");
        assert!(json.contains(r#""name":"vecAdd""#), "{json}");
        // Kernel track lays phases end to end: hook starts after exec.
        assert!(
            json.contains(r#""name":"hook","pid":1,"tid":0,"ts":100,"dur":40"#),
            "{json}"
        );
        // Untouched phases are omitted entirely.
        assert!(!json.contains(r#""name":"gt_probe""#), "{json}");
    }
}
