//! The device→host channel.
//!
//! NVBit tools ship data from injected device code to a host-side receiver
//! through a pinned-memory channel. Its throughput is the pivotal resource
//! in the GPU-FPX-vs-BinFPE comparison:
//!
//! * BinFPE pushes the destination value of **every** FP instruction
//!   execution of **every lane** and checks on the host — the channel
//!   saturates and, on exception-dense programs, effectively hangs
//!   (§2.3, §4.2);
//! * GPU-FPX checks **on the device** and pushes only records whose
//!   ⟨exception, location, format⟩ key is new in the GT table — a few
//!   dozen pushes per program (§3.1.2).
//!
//! The model: each push costs a fixed device-side overhead plus a small
//! per-byte cost; pushes beyond the channel's buffered capacity
//! additionally pay full serialization (the producer stalls at the
//! channel's drain rate). Records are drained by the host between launches
//! (deterministically, unlike NVBit's receiver thread, so tests are
//! reproducible) and each drained record costs host processing time.
//!
//! Pushing takes `&self`: SM worker threads running different blocks share
//! one channel, enqueueing into block-sharded queues with atomic
//! congestion counters. The congestion cost of a push depends only on its
//! *global ordinal* since the last drain — a value the atomic counter
//! hands out race-free — so the launch-wide sum of push costs is identical
//! under any block schedule. [`Channel::drain`] merges the shards by each
//! record's [`PushOrigin`] ⟨launch, block, seq⟩ stamp, which is exactly
//! serial block-by-block push order: reports are byte-identical to a
//! single-threaded run.
//!
//! Records are stored inline (up to [`MAX_RECORD`] bytes) so that even
//! BinFPE's multi-million-record floods do not allocate per record;
//! oversize payloads spill to the heap instead of being truncated.

use crossbeam::queue::SegQueue;
use fpx_obs::{Hist, Obs, Regime};
use fpx_prof::{Phase as ProfPhase, Prof};
use fpx_sim::hooks::{HostChannel, PushOrigin, StagedBatch};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum record size stored *inline*. Detector records are 4 bytes,
/// analyzer events ≤ 8 + one byte per register, and BinFPE's bulk 32-lane
/// blocks retain only their exceptional-lane summary (the full wire size
/// is still charged via [`fpx_sim::hooks::ChannelPort::push_sized`]).
/// Larger payloads are preserved through a heap spill.
pub const MAX_RECORD: usize = 56;

/// Queue shards, keyed by block id, so concurrent SM workers rarely
/// contend on the same queue.
const N_SHARDS: usize = 16;

/// One channel record: payload inline up to [`MAX_RECORD`] bytes, spilled
/// to the heap beyond that so nothing is silently truncated, stamped with
/// the ⟨launch, block, seq⟩ origin the drain merges by.
#[derive(Debug, Clone)]
pub struct Record {
    origin: PushOrigin,
    buf: [u8; MAX_RECORD],
    len: u8,
    spill: Option<Box<[u8]>>,
}

impl Record {
    fn new(origin: PushOrigin, bytes: &[u8]) -> Self {
        if bytes.len() <= MAX_RECORD {
            let mut buf = [0u8; MAX_RECORD];
            buf[..bytes.len()].copy_from_slice(bytes);
            Record {
                origin,
                buf,
                len: bytes.len() as u8,
                spill: None,
            }
        } else {
            Record {
                origin,
                buf: [0u8; MAX_RECORD],
                len: 0,
                spill: Some(bytes.into()),
            }
        }
    }

    /// The record payload.
    pub fn bytes(&self) -> &[u8] {
        match &self.spill {
            Some(s) => s,
            None => &self.buf[..self.len as usize],
        }
    }

    /// Payload length in bytes. Spilled records keep the inline `len`
    /// field at 0 (a spill is always longer than [`MAX_RECORD`], which a
    /// `u8` could not hold), so the *only* correct length is the payload's
    /// own — never read the private field directly.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Whether the payload lives in a heap spill (it exceeded
    /// [`MAX_RECORD`] bytes) rather than the inline buffer.
    pub fn spilled(&self) -> bool {
        self.spill.is_some()
    }
}

/// Channel cost/capacity parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Device-side cycles per push (buffer write + flag).
    pub push_cost: u64,
    /// Extra device-side cycles per 8 bytes of payload.
    pub cost_per_8_bytes: u64,
    /// Records the channel can buffer before producers stall.
    pub capacity: u64,
    /// Stall cycles per record once the buffer is full (the drain rate).
    pub stall_per_record: u64,
    /// In-flight records (as a multiple of `capacity`) past which the
    /// transfer degenerates (pinned-buffer exhaustion).
    pub exhaustion_threshold: u64,
    /// Stall multiplier in the exhausted regime — where the paper
    /// observed tools hang.
    pub exhaustion_factor: u64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            push_cost: 40,
            cost_per_8_bytes: 2,
            capacity: 4096,
            stall_per_record: 650,
            exhaustion_threshold: 16,
            exhaustion_factor: 16,
        }
    }
}

/// A device→host record channel, shared by all SM workers of a launch.
pub struct Channel {
    cfg: ChannelConfig,
    shards: Vec<SegQueue<Record>>,
    /// The last drain's records. One buffer serves every drain of the
    /// channel's life: a launch-sized vector allocated and freed per
    /// launch fragments the heap between the launches of a record flood.
    drained: Vec<Record>,
    /// Records pushed since the last drain.
    in_flight: AtomicU64,
    /// Total records ever pushed.
    pushes: AtomicU64,
    /// Total stall cycles incurred by producers.
    stalled: AtomicU64,
    /// Total device cycles spent on pushes (base + per-byte + stalls).
    push_cycles: AtomicU64,
    /// Metrics sink; a disabled handle (the default) costs one branch.
    obs: Obs,
    /// Self-profiler sink for per-push cost attribution; disabled by
    /// default.
    prof: Prof,
}

impl Channel {
    pub fn new(cfg: ChannelConfig) -> Self {
        Channel {
            cfg,
            shards: (0..N_SHARDS).map(|_| SegQueue::new()).collect(),
            drained: Vec::new(),
            in_flight: AtomicU64::new(0),
            pushes: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            push_cycles: AtomicU64::new(0),
            obs: Obs::disabled(),
            prof: Prof::disabled(),
        }
    }

    /// Attach a metrics handle; congestion regimes and occupancy are
    /// recorded per push from then on.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Attach a profiler handle; each push records its full device-side
    /// cost under the `channel_push` phase from then on.
    pub fn set_prof(&mut self, prof: Prof) {
        self.prof = prof;
    }

    /// Drain all buffered records to the host receiver, in serial push
    /// order: shards are merged by ⟨launch, block, seq⟩, restoring exactly
    /// the sequence a single-threaded block-by-block run would have
    /// produced. The caller charges host processing per record. The slice
    /// borrows the channel's drain buffer, which the next drain reuses.
    pub fn drain(&mut self) -> &[Record] {
        // Clock reads are not free; only pay for them when the wall-clock
        // telemetry has somewhere to land.
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        self.drained.clear();
        self.drained
            .reserve(self.in_flight.load(Ordering::Relaxed) as usize);
        for shard in &self.shards {
            while let Some(r) = shard.pop() {
                self.drained.push(r);
            }
        }
        // Each block's port stamps its own seq, so origins are unique and
        // the unstable (allocation-free) sort yields the one serial order.
        self.drained.sort_unstable_by_key(|r| r.origin);
        self.in_flight.store(0, Ordering::Relaxed);
        // Wall-clock series: lands in the telemetry snapshot's volatile
        // section only, never in deterministic artifacts.
        if let Some(t0) = t0 {
            self.obs
                .observe(Hist::DrainWallNs, t0.elapsed().as_nanos() as u64);
        }
        &self.drained
    }

    /// Total records pushed over the channel's lifetime.
    pub fn total_pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Total producer stall cycles caused by congestion.
    pub fn total_stall(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }

    /// Total device cycles producers spent pushing (base cost + per-byte
    /// cost + congestion stalls).
    pub fn total_push_cycles(&self) -> u64 {
        self.push_cycles.load(Ordering::Relaxed)
    }

    /// Congestion regime and stall cycles for the push holding global
    /// ordinal `n` since the last drain.
    #[inline]
    fn regime_for(&self, n: u64) -> (Regime, u64) {
        if n > self.cfg.capacity * self.cfg.exhaustion_threshold {
            (
                Regime::Exhausted,
                self.cfg.stall_per_record * self.cfg.exhaustion_factor,
            )
        } else if n > self.cfg.capacity {
            (Regime::Stalled, self.cfg.stall_per_record)
        } else {
            (Regime::Uncongested, 0)
        }
    }
}

impl Default for Channel {
    fn default() -> Self {
        Channel::new(ChannelConfig::default())
    }
}

impl HostChannel for Channel {
    fn push_from(&self, origin: PushOrigin, bytes: &[u8], wire_bytes: usize) -> u64 {
        self.shards[origin.block as usize % N_SHARDS].push(Record::new(origin, bytes));
        self.pushes.fetch_add(1, Ordering::Relaxed);
        // This push's global ordinal since the last drain decides its
        // congestion regime (the pre-parallel code incremented first, then
        // compared — fetch_add + 1 preserves those exact semantics).
        let n = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        let mut cost =
            self.cfg.push_cost + self.cfg.cost_per_8_bytes * (wire_bytes as u64).div_ceil(8);
        // The regime depends only on the ordinal `n`, which the atomic
        // hands out exactly once per push — so regime histograms (like the
        // stall totals) are identical under any block schedule.
        let (regime, stall) = self.regime_for(n);
        if stall > 0 {
            cost += stall;
            self.stalled.fetch_add(stall, Ordering::Relaxed);
        }
        self.push_cycles.fetch_add(cost, Ordering::Relaxed);
        self.obs
            .channel_push(n, self.cfg.capacity, regime, cost, stall, wire_bytes as u64);
        // An uncoalesced push is a batch of one; boundaries depend only on
        // per-block stage order, so this histogram is schedule-free.
        self.obs.observe(Hist::ChannelBatch, 1);
        self.prof.record(ProfPhase::ChannelPush, 1, cost);
        cost
    }

    /// Warp-coalesced transfer: the whole batch pays **one** base push
    /// cost plus the per-byte cost of its *summed* wire payload, but every
    /// logical record still enters its shard individually (the drain
    /// contract is per logical record, merged by each record's pre-stamped
    /// seq) and still consumes exactly one congestion ordinal. Stall
    /// totals and the regime histogram are therefore identical to
    /// per-record pushes under any block schedule — coalescing only
    /// amortizes the fixed cost, it cannot hide a flood (BinFPE's
    /// stall-dominated saturation survives unchanged, as §2.3 requires).
    fn push_batch(&self, batch: &StagedBatch) -> u64 {
        let k = batch.entries().len() as u64;
        if k == 0 {
            return 0;
        }
        let shard = &self.shards[batch.block() as usize % N_SHARDS];
        for e in batch.entries() {
            shard.push(Record::new(batch.origin(e), batch.payload(e)));
        }
        self.pushes.fetch_add(k, Ordering::Relaxed);
        let n0 = self.in_flight.fetch_add(k, Ordering::Relaxed);
        let base = self.cfg.push_cost + self.cfg.cost_per_8_bytes * batch.total_wire().div_ceil(8);
        let mut cost = base;
        let mut stall_total = 0u64;
        for (i, e) in batch.entries().iter().enumerate() {
            let (regime, stall) = self.regime_for(n0 + i as u64 + 1);
            stall_total += stall;
            // The amortized base rides on the batch's first record so the
            // ChannelPushCycles counter still sums to the true total.
            let rec_cost = stall + if i == 0 { base } else { 0 };
            self.obs.channel_push(
                n0 + i as u64 + 1,
                self.cfg.capacity,
                regime,
                rec_cost,
                stall,
                e.wire_bytes as u64,
            );
        }
        if stall_total > 0 {
            cost += stall_total;
            self.stalled.fetch_add(stall_total, Ordering::Relaxed);
        }
        self.push_cycles.fetch_add(cost, Ordering::Relaxed);
        // Batch boundaries depend only on per-block stage order (which
        // trace replay reproduces exactly), so the size histogram is
        // byte-identical under any schedule and record-vs-replay.
        self.obs.observe(Hist::ChannelBatch, k);
        self.prof.record(ProfPhase::ChannelPush, k, cost);
        cost
    }

    fn block_done(&self, launch: u64, block: u32, cycles: u64) {
        self.obs.block_cycles(launch, block, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_sim::hooks::ChannelPort;

    const ORIGIN: PushOrigin = PushOrigin {
        launch: 0,
        block: 0,
        seq: 0,
    };

    #[test]
    fn uncongested_pushes_cost_base_plus_size() {
        let mut ch = Channel::default();
        let cfg = ChannelConfig::default();
        let mut port = ChannelPort::new(&ch, 0, 0);
        assert_eq!(port.push(&[1, 2, 3]), cfg.push_cost + cfg.cost_per_8_bytes);
        assert_eq!(
            port.push(&[0u8; 12]),
            cfg.push_cost + 2 * cfg.cost_per_8_bytes,
            "larger records cost more"
        );
        assert_eq!(ch.total_stall(), 0);
        assert_eq!(ch.drain().len(), 2);
    }

    #[test]
    fn congestion_kicks_in_past_capacity() {
        let ch = Channel::new(ChannelConfig {
            push_cost: 10,
            cost_per_8_bytes: 0,
            capacity: 2,
            stall_per_record: 100,
            exhaustion_threshold: 16,
            exhaustion_factor: 10,
        });
        let mut port = ChannelPort::new(&ch, 0, 0);
        assert_eq!(port.push(&[0]), 10);
        assert_eq!(port.push(&[0]), 10);
        assert_eq!(port.push(&[0]), 110, "third push exceeds capacity");
        assert_eq!(ch.total_stall(), 100);
    }

    #[test]
    fn drain_returns_in_order_and_resets_congestion() {
        let mut ch = Channel::new(ChannelConfig {
            push_cost: 1,
            cost_per_8_bytes: 0,
            capacity: 1,
            stall_per_record: 50,
            exhaustion_threshold: 16,
            exhaustion_factor: 10,
        });
        let mut port = ChannelPort::new(&ch, 0, 0);
        port.push(&[1]);
        port.push(&[2, 3]);
        let recs = ch.drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].bytes(), &[1]);
        assert_eq!(recs[1].bytes(), &[2, 3]);
        let mut port = ChannelPort::new(&ch, 0, 0);
        assert_eq!(port.push(&[3]), 1, "drain resets in-flight accounting");
        assert_eq!(ch.total_pushes(), 3);
    }

    #[test]
    fn drain_merges_interleaved_blocks_into_serial_order() {
        let mut ch = Channel::default();
        // Three blocks pushing interleaved, as concurrent SMs would.
        let mut p0 = ChannelPort::new(&ch, 0, 0);
        let mut p1 = ChannelPort::new(&ch, 0, 1);
        let mut p2 = ChannelPort::new(&ch, 0, 2);
        p2.push(&[20]);
        p0.push(&[0]);
        p1.push(&[10]);
        p0.push(&[1]);
        p2.push(&[21]);
        let order: Vec<u8> = ch.drain().iter().map(|r| r.bytes()[0]).collect();
        assert_eq!(order, vec![0, 1, 10, 20, 21]);
    }

    #[test]
    fn concurrent_producers_account_and_merge_deterministically() {
        let mut ch = Channel::new(ChannelConfig {
            push_cost: 1,
            cost_per_8_bytes: 0,
            capacity: 100,
            stall_per_record: 7,
            exhaustion_threshold: 1000,
            exhaustion_factor: 1,
        });
        const BLOCKS: u32 = 8;
        const PER_BLOCK: u64 = 50;
        std::thread::scope(|s| {
            for b in 0..BLOCKS {
                let ch = &ch;
                s.spawn(move || {
                    let mut port = ChannelPort::new(ch, 0, b);
                    for i in 0..PER_BLOCK {
                        port.push(&[b as u8, i as u8]);
                    }
                });
            }
        });
        assert_eq!(ch.total_pushes(), BLOCKS as u64 * PER_BLOCK);
        // 400 pushes over capacity 100: exactly 300 stalled, regardless of
        // which producer drew which ordinal.
        assert_eq!(ch.total_stall(), 300 * 7);
        let recs = ch.drain();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(
                r.bytes(),
                &[(i as u64 / PER_BLOCK) as u8, (i as u64 % PER_BLOCK) as u8],
                "record {i} out of serial order"
            );
        }
    }

    #[test]
    fn push_exactly_at_capacity_is_uncongested() {
        // The regime edge is `n > capacity`: the push *at* capacity still
        // pays only the base cost; the next one stalls.
        let cfg = ChannelConfig {
            push_cost: 10,
            cost_per_8_bytes: 0,
            capacity: 4,
            stall_per_record: 100,
            exhaustion_threshold: 16,
            exhaustion_factor: 10,
        };
        let ch = Channel::new(cfg);
        let mut port = ChannelPort::new(&ch, 0, 0);
        for i in 1..=cfg.capacity {
            assert_eq!(
                port.push(&[0]),
                10,
                "push {i} of {} uncongested",
                cfg.capacity
            );
        }
        assert_eq!(ch.total_stall(), 0, "at capacity: still uncongested");
        assert_eq!(
            port.push(&[0]),
            110,
            "capacity + 1 enters the stalled regime"
        );
        assert_eq!(ch.total_stall(), 100);
    }

    #[test]
    fn push_exactly_at_exhaustion_threshold_is_only_stalled() {
        // The second edge is `n > capacity * exhaustion_threshold`: the
        // push *at* the product stays in the stalled regime; the next one
        // pays the exhaustion multiplier.
        let cfg = ChannelConfig {
            push_cost: 1,
            cost_per_8_bytes: 0,
            capacity: 2,
            stall_per_record: 50,
            exhaustion_threshold: 3,
            exhaustion_factor: 7,
        };
        let ch = Channel::new(cfg);
        let mut port = ChannelPort::new(&ch, 0, 0);
        let edge = cfg.capacity * cfg.exhaustion_threshold; // ordinal 6
        for _ in 0..edge - 1 {
            port.push(&[0]);
        }
        assert_eq!(
            port.push(&[0]),
            1 + 50,
            "push at capacity*threshold still pays the plain stall"
        );
        assert_eq!(
            port.push(&[0]),
            1 + 50 * 7,
            "one past the product is exhausted"
        );
    }

    #[test]
    fn record_at_max_record_is_inline_and_one_past_spills() {
        let at = Record::new(ORIGIN, &[9u8; MAX_RECORD]);
        assert!(!at.spilled(), "exactly MAX_RECORD bytes stays inline");
        assert_eq!(at.bytes().len(), MAX_RECORD);
        assert_eq!(at.len(), MAX_RECORD);
        let over = Record::new(ORIGIN, &[9u8; MAX_RECORD + 1]);
        assert!(over.spilled(), "MAX_RECORD + 1 must spill to the heap");
        assert_eq!(over.bytes(), &[9u8; MAX_RECORD + 1][..]);
        // `len()` must report the true payload length even though a
        // spilled record keeps its inline length field at 0.
        assert_eq!(over.len(), MAX_RECORD + 1);
        assert!(!over.is_empty());
        let empty = Record::new(ORIGIN, &[]);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert!(!empty.spilled());
    }

    #[test]
    fn channel_metrics_feed_obs_registry() {
        use fpx_obs::Counter;
        let mut ch = Channel::new(ChannelConfig {
            push_cost: 10,
            cost_per_8_bytes: 0,
            capacity: 1,
            stall_per_record: 5,
            exhaustion_threshold: 2,
            exhaustion_factor: 3,
        });
        let obs = Obs::enabled();
        ch.set_obs(obs.clone());
        let mut port = ChannelPort::new(&ch, 0, 0);
        port.push(&[0]); // ordinal 1: uncongested
        port.push(&[0]); // ordinal 2: stalled
        port.push(&[0]); // ordinal 3: exhausted
        let snap = obs.registry().unwrap().snapshot();
        assert_eq!(snap.stall_regimes(), [1, 1, 1]);
        assert_eq!(snap.get(Counter::ChannelPushes), 3);
        assert_eq!(snap.get(Counter::ChannelStallCycles), 5 + 15);
        assert_eq!(snap.get(Counter::ChannelPushCycles), 30 + 5 + 15);
        assert_eq!(ch.total_push_cycles(), 50);
    }

    #[test]
    fn batched_pushes_amortize_only_the_base_cost() {
        // Identical record streams, one per-record, one as a single batch:
        // the batch saves exactly (k - 1) base push costs (payloads are
        // 8-byte aligned so per-byte rounding is identical), while record
        // streams, push counts, and stall totals match bit for bit.
        let cfg = ChannelConfig::default();
        let k = 5usize;
        let payload = [7u8; 8];
        let mut per = Channel::new(cfg);
        {
            let mut port = ChannelPort::with_coalesce(&per, 3, 9, 1);
            for _ in 0..k {
                port.push(&payload);
            }
        }
        let mut bat = Channel::new(cfg);
        {
            let mut port = ChannelPort::with_coalesce(&bat, 3, 9, k + 1);
            for _ in 0..k {
                assert_eq!(port.stage(&payload), 0, "under the cap: staged");
            }
            assert!(port.flush() > 0);
        }
        assert_eq!(per.total_pushes(), bat.total_pushes());
        assert_eq!(per.total_stall(), bat.total_stall());
        assert_eq!(
            per.total_push_cycles() - bat.total_push_cycles(),
            (k as u64 - 1) * cfg.push_cost,
            "coalescing amortizes the fixed cost only"
        );
        let pr = per.drain();
        let br = bat.drain();
        assert_eq!(pr.len(), br.len());
        for (a, b) in pr.iter().zip(br.iter()) {
            assert_eq!(a.bytes(), b.bytes());
        }
    }

    #[test]
    fn batch_stalls_match_per_record_across_regime_edges() {
        // A batch whose ordinals straddle uncongested → stalled →
        // exhausted must charge exactly the stalls per-record pushes
        // would: one congestion ordinal per logical record.
        let cfg = ChannelConfig {
            push_cost: 10,
            cost_per_8_bytes: 0,
            capacity: 2,
            stall_per_record: 100,
            exhaustion_threshold: 2,
            exhaustion_factor: 7,
        };
        let k = 6usize; // ordinals 1..=6: 2 free, 2 stalled, 2 exhausted
        let expected_stall = 2 * 100 + 2 * 700;
        let per = Channel::new(cfg);
        {
            let mut port = ChannelPort::with_coalesce(&per, 0, 0, 1);
            for _ in 0..k {
                port.push(&[0]);
            }
        }
        assert_eq!(per.total_stall(), expected_stall);
        let bat = Channel::new(cfg);
        {
            let mut port = ChannelPort::with_coalesce(&bat, 0, 0, k + 1);
            for _ in 0..k {
                port.stage(&[0]);
            }
            port.flush();
        }
        assert_eq!(bat.total_stall(), expected_stall);
        assert_eq!(bat.total_pushes(), k as u64);
    }

    #[test]
    fn batched_obs_counters_match_per_record_and_sum_exactly() {
        use fpx_obs::Counter;
        let cfg = ChannelConfig {
            push_cost: 10,
            cost_per_8_bytes: 2,
            capacity: 2,
            stall_per_record: 5,
            exhaustion_threshold: 16,
            exhaustion_factor: 3,
        };
        let mut bat = Channel::new(cfg);
        let obs = Obs::enabled();
        bat.set_obs(obs.clone());
        {
            let mut port = ChannelPort::with_coalesce(&bat, 0, 0, 8);
            for _ in 0..4 {
                port.stage(&[0u8; 8]);
            }
            port.flush();
        }
        let snap = obs.registry().unwrap().snapshot();
        assert_eq!(snap.get(Counter::ChannelPushes), 4);
        // Regime histogram counts logical records, not transfers.
        assert_eq!(snap.stall_regimes(), [2, 2, 0]);
        // Per-record attributed cycles sum exactly to the channel total
        // (the amortized base rides on the batch's first record).
        assert_eq!(
            snap.get(Counter::ChannelPushCycles),
            bat.total_push_cycles()
        );
        assert_eq!(snap.get(Counter::ChannelStallCycles), bat.total_stall());
    }

    #[test]
    fn cap_sized_staging_flushes_itself() {
        let cfg = ChannelConfig::default();
        let ch = Channel::new(cfg);
        let mut port = ChannelPort::with_coalesce(&ch, 0, 0, 2);
        assert_eq!(port.stage(&[1]), 0);
        let cost = port.stage(&[2]);
        assert!(cost > 0, "hitting the cap ships the batch");
        assert_eq!(ch.total_pushes(), 2);
        assert_eq!(port.flush(), 0, "nothing left staged");
    }

    #[test]
    fn record_preserves_oversize_payload_via_spill() {
        let small = Record::new(ORIGIN, &[7u8; MAX_RECORD]);
        assert_eq!(small.bytes(), &[7u8; MAX_RECORD]);
        let big: Vec<u8> = (0..MAX_RECORD as u8 * 3).collect();
        let r = Record::new(ORIGIN, &big);
        assert_eq!(r.bytes(), &big[..], "oversize payloads spill, not truncate");
        assert_eq!(r.len(), big.len());
        // A multi-kilobyte spill (well past any real tool record) must
        // round-trip bytes and length too.
        let huge: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let h = Record::new(ORIGIN, &huge);
        assert!(h.spilled());
        assert_eq!(h.len(), 4096);
        assert_eq!(h.bytes(), &huge[..]);
    }

    #[test]
    fn spilled_records_survive_a_push_drain_round_trip() {
        let mut ch = Channel::default();
        let huge: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        {
            let mut port = ChannelPort::new(&ch, 0, 0);
            port.push(&[1, 2, 3]);
            port.push(&huge);
        }
        let drained = ch.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].bytes(), &[1, 2, 3]);
        assert_eq!(drained[0].len(), 3);
        assert_eq!(drained[1].bytes(), &huge[..]);
        assert_eq!(drained[1].len(), huge.len());
        assert!(drained[1].spilled());
    }
}
