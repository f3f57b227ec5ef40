//! Format round trips: decoding a v1 stream and encoding it again must
//! reproduce the stream byte for byte, and encoding a recording then
//! decoding it must reproduce the recording — on real suite recordings
//! and on random visit streams that exercise partial masks, XOR runs and
//! `SAME_CTX` runs.

use fpx_sim::gpu::Arch;
use fpx_sim::hooks::When;
use fpx_suite::runner::RunnerConfig;
use fpx_trace::format::{KernelMeta, LaunchTrace};
use fpx_trace::{record, Trace, Visit, Visits};
use proptest::prelude::*;

fn record_program(name: &str) -> Trace {
    let cfg = RunnerConfig::default();
    let p = fpx_suite::find(name).expect(name);
    record(&p.name, cfg.arch, cfg.opts.fast_math, |gpu| {
        p.prepare(&cfg.opts, &mut gpu.mem)
            .launches
            .into_iter()
            .map(|l| (l.kernel, l.cfg))
            .collect()
    })
    .expect("record")
}

#[test]
fn real_recordings_decode_and_re_encode_byte_for_byte() {
    // GRAMSCHM: one kernel, exception-dense; LU: several launches.
    for name in ["GRAMSCHM", "LU"] {
        let recorded = record_program(name);
        let bytes = recorded.to_bytes();
        let decoded = Trace::from_bytes(&bytes).expect(name);
        assert_eq!(decoded, recorded, "{name}: decode(encode(record))");
        assert!(decoded.to_bytes() == bytes, "{name}: encode(decode(bytes))");
    }
    assert!(record_program("LU").launches.len() > 1);
}

/// Raw material for one visit: a mode, random bits, a register count
/// and a value seed. [`build`] interprets it relative to the previous
/// visit, so that shared contexts (`SAME_CTX`) and equal value counts
/// (`XOR_VALUES`) come in runs.
type Seed = (u8, u32, u64, u64);

fn arb_visits() -> impl Strategy<Value = Vec<Seed>> {
    proptest::collection::vec((0u8..6, any::<u32>(), 0u64..4, any::<u64>()), 0..48)
}

/// A lane mask: full, partial, or arbitrary.
fn mask(bits: u32, pick: u32) -> u32 {
    match pick % 3 {
        0 => u32::MAX,
        1 => bits & 0x0000_ff0f,
        _ => bits,
    }
}

/// The low `lanes` lanes.
fn low_lanes(lanes: usize) -> u32 {
    u32::MAX >> (32 - lanes)
}

/// A register value: mostly small (one-byte varints), sometimes any.
fn value(x: &mut u64) -> u32 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    if x.is_multiple_of(4) {
        (*x >> 32) as u32
    } else {
        (*x % 100) as u32
    }
}

/// Modes: 0–1 keep the previous context, 2–3 keep it and the value count
/// (an XOR run; 3 also repeats every other value), 4 starts afresh, and
/// 5 keeps the value count over a new lane count.
fn build(seeds: &[Seed], nblocks: u32) -> Visits {
    let mut visits = Visits::default();
    let mut values: Vec<u32> = Vec::new();
    for &(mode, bits, nregs, seed) in seeds {
        let last = visits.len().checked_sub(1).and_then(|i| visits.get(i));
        let prev_n = last.map(|v| v.values.len());
        let (block, warp, exec_mask, guarded_mask) = match last {
            Some(v) if mode < 4 => (v.block, v.warp, v.exec_mask, v.guarded_mask),
            _ => {
                let exec = mask(bits, bits >> 28);
                let guarded = match prev_n {
                    Some(n) if mode == 5 && (1..=32).contains(&n) => low_lanes(n),
                    _ => exec & mask(bits.rotate_left(7), bits >> 30),
                };
                (bits % nblocks, (bits >> 8) as u8, exec | guarded, guarded)
            }
        };
        let lanes = guarded_mask.count_ones() as usize;
        let n = match prev_n {
            Some(n) if mode >= 2 && mode != 4 && lanes != 0 && n % lanes == 0 => n,
            _ => lanes * nregs as usize,
        };
        let mut x = seed | 1;
        let previous = last.map_or(&[][..], |v| v.values).to_vec();
        values.clear();
        values.extend((0..n).map(|i| match previous.get(i) {
            Some(&p) if mode == 3 && i % 2 == 0 => p,
            _ => value(&mut x),
        }));
        visits.push(Visit {
            pc: bits % 64,
            when: if bits & 1 == 0 {
                When::Before
            } else {
                When::After
            },
            block,
            warp,
            exec_mask,
            guarded_mask,
            exceptional: bits & 2 != 0,
            values: &values,
        });
    }
    visits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_visit_streams_round_trip(
        a in arb_visits(),
        b in arb_visits(),
        nblocks in 1u32..5,
    ) {
        let launch = |kernel, seeds: &[Seed]| LaunchTrace {
            kernel,
            plain_cycles: seeds.len() as u64 * 7,
            block_cycles: (0..nblocks as u64).collect(),
            visits: build(seeds, nblocks),
        };
        let trace = Trace {
            arch: Arch::Ampere,
            fast_math: nblocks % 2 == 0,
            program: "random".into(),
            kernels: vec![
                KernelMeta { name: "k0".into(), num_regs: 8, num_instrs: 64, checksum: 1 },
                KernelMeta { name: "k1".into(), num_regs: 16, num_instrs: 64, checksum: 2 },
            ],
            launches: vec![launch(0, &a), launch(1, &b)],
        };
        let bytes = trace.to_bytes();
        let decoded = Trace::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&decoded, &trace);
        prop_assert!(decoded.to_bytes() == bytes);
    }
}
