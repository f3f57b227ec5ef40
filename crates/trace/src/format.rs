//! The on-disk trace format: a versioned header followed by a tagged,
//! varint/delta-encoded event stream.
//!
//! Layout (all multi-byte integers are LEB128 varints unless noted):
//!
//! ```text
//! header   := magic "FPXT" | version u16-LE | arch u8 | fast_math u8
//!           | program (len-prefixed UTF-8)
//! kernels  := count | kernel*
//! kernel   := name (len-prefixed UTF-8) | num_regs | num_instrs | checksum
//! events   := event* eof
//! event    := TAG_LAUNCH_START kernel_id plain_cycles nblocks block_cycles*
//!           | TAG_VISIT flags pc-delta(zigzag) [block warp exec guarded]
//!             nvalues value*
//!           | TAG_LAUNCH_END
//! eof      := TAG_EOF total_visits
//! ```
//!
//! Visit compression exploits two regularities of the stream. Visits are
//! drained in ⟨block, seq⟩ order, so consecutive visits usually share
//! their block/warp/mask context (`FLAG_SAME_CTX` elides it), and an
//! `After` visit usually directly follows its `Before` twin at the same
//! pc with near-identical register values — `FLAG_XOR_VALUES` stores the
//! element-wise XOR against the previous visit's values, which varint
//! encoding collapses to one byte per unchanged register.
//!
//! Versioning policy: the magic identifies the family, `VERSION` the
//! layout. Readers reject any version other than their own with
//! [`TraceError::Version`] — there is no "best effort" parse of a
//! mismatched layout, because misinterpreting raw register bits would
//! silently fabricate exception records.

use fpx_sim::gpu::Arch;
use fpx_sim::hooks::When;

/// File magic: identifies an fpx execution trace.
pub const MAGIC: [u8; 4] = *b"FPXT";
/// Current layout version. Bump on any layout change.
pub const VERSION: u16 = 1;

const TAG_LAUNCH_START: u8 = 1;
const TAG_VISIT: u8 = 2;
const TAG_LAUNCH_END: u8 = 3;
const TAG_EOF: u8 = 4;

const FLAG_AFTER: u8 = 1 << 0;
const FLAG_EXCEPTIONAL: u8 = 1 << 1;
const FLAG_SAME_CTX: u8 = 1 << 2;
const FLAG_XOR_VALUES: u8 = 1 << 3;

/// Fewest bytes one kernel-table entry takes: four varints (name length,
/// register count, instruction count, checksum) of at least one byte.
pub(crate) const KERNEL_MIN_BYTES: usize = 4;

/// Why a trace could not be read. Every malformed input maps to one of
/// these — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the `FPXT` magic.
    BadMagic,
    /// The file is an fpx trace, but of an unsupported layout version.
    Version { found: u16, supported: u16 },
    /// The stream ended mid-structure.
    Truncated,
    /// A structurally invalid stream (bad tag, out-of-range id, …).
    Corrupt(String),
    /// Replay was handed kernels that do not match the recorded program.
    KernelMismatch { kernel: String, reason: String },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an fpx trace (bad magic)"),
            TraceError::Version { found, supported } => write!(
                f,
                "unsupported trace version {found} (this build reads version {supported})"
            ),
            TraceError::Truncated => write!(f, "trace file is truncated"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::KernelMismatch { kernel, reason } => write!(
                f,
                "kernel `{kernel}` does not match the recorded program: {reason}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Identity of one kernel referenced by the trace. Replay re-derives the
/// actual SASS from the program named in the header; these fields let it
/// verify the code it rebuilt is the code that was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelMeta {
    pub name: String,
    pub num_regs: u16,
    pub num_instrs: u32,
    /// FNV-1a over the kernel's disassembly (see [`kernel_checksum`]).
    pub checksum: u64,
}

/// One recorded instrumented-instruction visit, borrowed from its
/// launch's [`Visits`] columns: everything an injected device function
/// could observe, minus the state it never reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit<'a> {
    pub pc: u32,
    pub when: When,
    pub block: u32,
    pub warp: u8,
    pub exec_mask: u32,
    pub guarded_mask: u32,
    /// Some referenced register held a NaN/INF/subnormal at visit time
    /// (recorder-side classification; drives Chrome-trace instants).
    pub exceptional: bool,
    /// The raw 32-bit register bits of each referenced register × each
    /// guarded lane, **register-major**: the guarded lanes of the first
    /// register in lane order, then those of the second, and so on, in
    /// the canonical order [`crate::record::referenced_regs`] defines.
    pub values: &'a [u32],
}

impl Visit<'_> {
    /// Number of guarded lanes, the length of each register's row.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.guarded_mask.count_ones() as usize
    }
}

/// Whether `n` values form whole rows of `guarded_mask`'s lanes — the
/// layout every recorded visit has.
fn whole_rows(n: usize, guarded_mask: u32) -> bool {
    let k = guarded_mask.count_ones() as usize;
    n == 0 || (k != 0 && n.is_multiple_of(k))
}

/// Most values one visit can hold: 32 lanes × 256 registers. Every
/// recorded visit is below it, since registers are numbered by a byte.
const MAX_VISIT_VALUES: usize = 32 * 256;

/// Values per arena block: 64 KiB, a multiple of [`MAX_VISIT_VALUES`].
const BLOCK: usize = 2 * MAX_VISIT_VALUES;

/// The visits of one launch, stored column by column. All register
/// values share one register-major arena (see [`Visit::values`]), so no
/// visit owns a heap allocation of its own.
///
/// The arena is a list of equal-size blocks rather than one vector. A
/// visit never straddles two blocks (it starts a new one instead), so its
/// values stay one slice: visit `i`'s begin at arena position `start[i]`,
/// block `start[i] / BLOCK`, and run for `len[i]` values. Blocks are
/// small enough that the allocator serves them from its heap, where a
/// block one trace frees is the block the next trace takes. A vector
/// the size of a launch is mapped fresh or carved from the heap
/// depending on the frees before it, so peak memory would depend on the
/// order traces are loaded in.
#[derive(Debug, Clone, Default)]
pub struct Visits {
    pc: Vec<u32>,
    when: Vec<When>,
    block: Vec<u32>,
    warp: Vec<u8>,
    exec_mask: Vec<u32>,
    guarded_mask: Vec<u32>,
    exceptional: Vec<bool>,
    start: Vec<usize>,
    len: Vec<u16>,
    values: Vec<Vec<u32>>,
}

impl PartialEq for Visits {
    fn eq(&self, other: &Visits) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Visits {}

impl Visits {
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Visit `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Visit<'_>> {
        (i < self.len()).then(|| Visit {
            pc: self.pc[i],
            when: self.when[i],
            block: self.block[i],
            warp: self.warp[i],
            exec_mask: self.exec_mask[i],
            guarded_mask: self.guarded_mask[i],
            exceptional: self.exceptional[i],
            values: self.values_of(i),
        })
    }

    /// The visits in recorded order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Visit<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index below len"))
    }

    fn values_of(&self, i: usize) -> &[u32] {
        let (at, n) = (self.start[i] % BLOCK, self.len[i] as usize);
        self.values
            .get(self.start[i] / BLOCK)
            .map_or(&[], |b| &b[at..at + n])
    }

    /// Append a copy of `v`. Panics unless `v.values` holds whole rows
    /// of its guarded lanes.
    pub fn push(&mut self, v: Visit<'_>) {
        self.push_with(v, v.values.len(), |block| block.extend_from_slice(v.values));
    }

    /// Append the context of `head` (its `values` are not read) with the
    /// `n` values `fill` appends to the arena block, register-major.
    /// Panics unless they form whole rows of the guarded lanes.
    pub(crate) fn push_with(
        &mut self,
        head: Visit<'_>,
        n: usize,
        fill: impl FnOnce(&mut Vec<u32>),
    ) {
        assert!(
            n <= MAX_VISIT_VALUES && whole_rows(n, head.guarded_mask),
            "visit values must be whole rows of the guarded lanes"
        );
        let block = self.block_for(n);
        let at = block.len();
        fill(block);
        assert_eq!(block.len() - at, n, "visit filled {n} values");
        self.push_context(head, n);
    }

    /// The arena block the next visit's `n` values go in: the last one,
    /// or a new one when the last lacks room.
    fn block_for(&mut self, n: usize) -> &mut Vec<u32> {
        if self.values.last().is_none_or(|b| b.len() + n > BLOCK) {
            self.values.push(Vec::with_capacity(BLOCK));
        }
        self.values.last_mut().expect("a block was just ensured")
    }

    /// Open `n` zeroed values for the next visit at the arena's end.
    /// Returns them with the values of visit `prev`, when given.
    fn open(&mut self, n: usize, prev: Option<usize>) -> (&mut [u32], Option<&[u32]>) {
        if n > 0 {
            self.block_for(n);
        }
        let Some((cur, done)) = self.values.split_last_mut() else {
            return (&mut [], prev.map(|_| &[][..]));
        };
        let at = cur.len();
        cur.resize(at + n, 0);
        let (head, cur) = cur.split_at_mut(at);
        let prev = prev.map(|j| {
            let (b, at, n) = (self.start[j] / BLOCK, self.start[j] % BLOCK, self.len[j]);
            let block = done.get(b).map_or(&*head, |b| b.as_slice());
            &block[at..at + n as usize]
        });
        (cur, prev)
    }

    /// Append every column but the values, closing the visit over the
    /// last `n` values of the arena.
    fn push_context(&mut self, v: Visit<'_>, n: usize) {
        let end = self
            .values
            .last()
            .map_or(0, |b| (self.values.len() - 1) * BLOCK + b.len());
        self.pc.push(v.pc);
        self.when.push(v.when);
        self.block.push(v.block);
        self.warp.push(v.warp);
        self.exec_mask.push(v.exec_mask);
        self.guarded_mask.push(v.guarded_mask);
        self.exceptional.push(v.exceptional);
        self.start.push(end - n);
        self.len.push(n as u16);
    }
}

/// One recorded kernel launch: which kernel ran, what the uninstrumented
/// execution cost (derived during recording), per-block cycles for
/// the SM timeline, and every instrumentation visit in serial
/// ⟨block, seq⟩ order.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchTrace {
    /// Index into [`Trace::kernels`].
    pub kernel: u32,
    /// Cycles the uninstrumented launch took (per-launch plain profile).
    pub plain_cycles: u64,
    /// Plain-execution cycles per thread block, indexed by block id.
    pub block_cycles: Vec<u64>,
    pub visits: Visits,
}

/// A complete recorded execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub arch: Arch,
    pub fast_math: bool,
    /// What was recorded: a suite program name or a `.sass` path.
    pub program: String,
    pub kernels: Vec<KernelMeta>,
    pub launches: Vec<LaunchTrace>,
}

impl Trace {
    /// Total visits across all launches.
    pub fn total_visits(&self) -> u64 {
        self.launches.iter().map(|l| l.visits.len() as u64).sum()
    }

    /// Serialize to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        // A counting pass sizes the buffer exactly, so it is one heap
        // allocation of the encoded length: grown by doubling it would be
        // copied (holding two buffers at once), and reserved from an upper
        // bound it would be mapped fresh on top of the resident heap.
        let mut size = Writer { out: Count(0) };
        self.encode(&mut size);
        let mut w = Writer {
            out: Vec::with_capacity(size.out.0),
        };
        self.encode(&mut w);
        w.out
    }

    fn encode(&self, w: &mut Writer<impl Out>) {
        w.out.extend_from_slice(&MAGIC);
        w.out.extend_from_slice(&VERSION.to_le_bytes());
        w.out.push(match self.arch {
            Arch::Turing => 0,
            Arch::Ampere => 1,
        });
        w.out.push(self.fast_math as u8);
        w.str(&self.program);
        w.varint(self.kernels.len() as u64);
        for k in &self.kernels {
            w.str(&k.name);
            w.varint(k.num_regs as u64);
            w.varint(k.num_instrs as u64);
            w.varint(k.checksum);
        }
        for l in &self.launches {
            w.out.push(TAG_LAUNCH_START);
            w.varint(l.kernel as u64);
            w.varint(l.plain_cycles);
            w.varint(l.block_cycles.len() as u64);
            for &c in &l.block_cycles {
                w.varint(c);
            }
            let mut prev = None;
            for v in l.visits.iter() {
                w.visit(v, prev);
                prev = Some(v);
            }
            w.out.push(TAG_LAUNCH_END);
        }
        w.out.push(TAG_EOF);
        w.varint(self.total_visits());
    }

    /// Parse the on-disk format. Rejects wrong magic/version and any
    /// structural damage with a typed [`TraceError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(TraceError::Version {
                found: version,
                supported: VERSION,
            });
        }
        let arch = match r.byte()? {
            0 => Arch::Turing,
            1 => Arch::Ampere,
            a => return Err(TraceError::Corrupt(format!("unknown arch byte {a}"))),
        };
        let fast_math = match r.byte()? {
            0 => false,
            1 => true,
            b => return Err(TraceError::Corrupt(format!("bad fast_math byte {b}"))),
        };
        let program = r.str()?;
        let nkernels = r.count("kernel", KERNEL_MIN_BYTES)?;
        let mut kernels = Vec::with_capacity(nkernels);
        for _ in 0..nkernels {
            kernels.push(KernelMeta {
                name: r.str()?,
                num_regs: r.varint()? as u16,
                num_instrs: r.varint()? as u32,
                checksum: r.varint()?,
            });
        }
        let mut launches = Vec::new();
        let mut visits_seen = 0u64;
        loop {
            match r.byte()? {
                TAG_LAUNCH_START => {
                    let kernel = r.varint()? as u32;
                    if kernel as usize >= kernels.len() {
                        return Err(TraceError::Corrupt(format!(
                            "launch references kernel {kernel} of {nkernels}"
                        )));
                    }
                    let plain_cycles = r.varint()?;
                    let nblocks = r.count("block", 1)?;
                    let mut block_cycles = Vec::with_capacity(nblocks);
                    for _ in 0..nblocks {
                        block_cycles.push(r.varint()?);
                    }
                    let mut visits = Visits::default();
                    loop {
                        match r.byte()? {
                            TAG_VISIT => r.visit(&mut visits, nblocks)?,
                            TAG_LAUNCH_END => break,
                            t => {
                                return Err(TraceError::Corrupt(format!(
                                    "unexpected tag {t} inside launch"
                                )))
                            }
                        }
                    }
                    visits_seen += visits.len() as u64;
                    launches.push(LaunchTrace {
                        kernel,
                        plain_cycles,
                        block_cycles,
                        visits,
                    });
                }
                TAG_EOF => {
                    let declared = r.varint()?;
                    if declared != visits_seen {
                        return Err(TraceError::Corrupt(format!(
                            "EOF declares {declared} visits, stream holds {visits_seen}"
                        )));
                    }
                    break;
                }
                t => return Err(TraceError::Corrupt(format!("unexpected top-level tag {t}"))),
            }
        }
        Ok(Trace {
            arch,
            fast_math,
            program,
            kernels,
            launches,
        })
    }
}

/// FNV-1a over a kernel's name, register count, and full disassembly —
/// the identity check that keeps replay from feeding a trace through the
/// wrong (e.g. re-edited) kernel. Delegates to the canonical
/// [`KernelCode::checksum`](fpx_sass::kernel::KernelCode::checksum), which
/// `fpx-nvbit` also uses to key its pre-decoded instrumentation cache —
/// the two layers deliberately share one fingerprint.
pub fn kernel_checksum(code: &fpx_sass::kernel::KernelCode) -> u64 {
    code.checksum()
}

/// Where a [`Writer`] puts its bytes.
pub(crate) trait Out {
    fn push(&mut self, byte: u8);
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl Out for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// Counts the bytes written to it and keeps none.
struct Count(usize);

impl Out for Count {
    #[inline]
    fn push(&mut self, _: u8) {
        self.0 += 1;
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Varint byte-stream writer, shared with the cache-entry format in
/// [`crate::cache`].
pub(crate) struct Writer<O = Vec<u8>> {
    pub(crate) out: O,
}

impl Default for Writer {
    fn default() -> Self {
        Writer { out: Vec::new() }
    }
}

impl<O: Out> Writer<O> {
    /// Most values fit one byte. Inlining only that test, with the loop
    /// out of line, encodes measurably faster than inlining the loop.
    #[inline]
    pub(crate) fn varint(&mut self, v: u64) {
        if v < 0x80 {
            self.out.push(v as u8);
        } else {
            self.varint_multi(v);
        }
    }

    fn varint_multi(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                break;
            }
            self.out.push(byte | 0x80);
        }
    }

    fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    /// Encode one visit in the v1 layout, `prev` being the launch's
    /// previous visit.
    fn visit(&mut self, v: Visit<'_>, prev: Option<Visit<'_>>) {
        let mut flags = 0u8;
        if v.when == When::After {
            flags |= FLAG_AFTER;
        }
        if v.exceptional {
            flags |= FLAG_EXCEPTIONAL;
        }
        let same_ctx = prev.is_some_and(|p| {
            p.block == v.block
                && p.warp == v.warp
                && p.exec_mask == v.exec_mask
                && p.guarded_mask == v.guarded_mask
        });
        if same_ctx {
            flags |= FLAG_SAME_CTX;
        }
        let xor = prev.is_some_and(|p| p.values.len() == v.values.len() && !v.values.is_empty());
        if xor {
            flags |= FLAG_XOR_VALUES;
        }
        self.out.push(TAG_VISIT);
        self.out.push(flags);
        self.zigzag(v.pc as i64 - prev.map_or(0, |p| p.pc as i64));
        if !same_ctx {
            self.varint(v.block as u64);
            self.out.push(v.warp);
            self.varint(v.exec_mask as u64);
            self.varint(v.guarded_mask as u64);
        }
        let n = v.values.len();
        self.varint(n as u64);
        // The wire order is lane-major: read the arena transposed. The XOR
        // partner is the same wire element of the previous visit; with an
        // equal lane count (the common case) that is the same arena
        // offset, which spares the general arm its per-value divisions.
        let k = v.lanes();
        match prev.filter(|_| xor).map(|p| (p.values, p.lanes())) {
            None => self.values(v.values, k, |_, _| 0),
            Some((prev, pk)) if pk == k => self.values(v.values, k, |at, _| prev[at]),
            Some((prev, pk)) => self.values(v.values, k, |_, i| prev[arena_at(i, n, pk)]),
        }
    }

    /// Write one visit's register-major `values` (rows of `lanes` lanes)
    /// to the wire lane-major, each XOR-ed with `partner(arena offset,
    /// wire index)`.
    #[inline]
    fn values(&mut self, values: &[u32], lanes: usize, partner: impl Fn(usize, usize) -> u32) {
        let nregs = values.len().checked_div(lanes).unwrap_or(0);
        for lane in 0..lanes {
            for r in 0..nregs {
                let at = r * lanes + lane;
                self.varint((values[at] ^ partner(at, lane * nregs + r)) as u64);
            }
        }
    }
}

/// Varint byte-stream reader, shared with the cache-entry format in
/// [`crate::cache`].
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if n > self.buf.len() - self.pos {
            return Err(TraceError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn byte(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(TraceError::Corrupt("varint overflows u64".into()));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read an element count and bound it by the input that remains, at
    /// `min_bytes` per element, so a corrupt count can never reserve more
    /// than the rest of the stream could fill.
    pub(crate) fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, TraceError> {
        let n = self.varint()?;
        let room = (self.buf.len() - self.pos) / min_bytes;
        if n > room as u64 {
            return Err(TraceError::Corrupt(format!(
                "{what} count {n} exceeds the {room} the remaining input can hold"
            )));
        }
        Ok(n as usize)
    }

    fn zigzag(&mut self) -> Result<i64, TraceError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    pub(crate) fn str(&mut self) -> Result<String, TraceError> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceError::Corrupt("string is not UTF-8".into()))
    }

    /// Read one visit's values from the wire (lane-major) into `cur`, its
    /// register-major rows of `lanes` lanes, each XOR-ed with
    /// `partner(arena offset, wire index)`.
    #[inline]
    fn values(
        &mut self,
        cur: &mut [u32],
        lanes: usize,
        partner: impl Fn(usize, usize) -> u32,
    ) -> Result<(), TraceError> {
        let nregs = cur.len().checked_div(lanes).unwrap_or(0);
        // Nearly every visit's values are one-byte varints (XOR deltas of
        // unchanged registers and small values); one OR over the bytes
        // finds those visits, which then copy without varint decoding.
        let one_byte = self
            .buf
            .get(self.pos..self.pos + cur.len())
            .filter(|bytes| bytes.iter().fold(0, |acc, &b| acc | b) < 0x80);
        if let Some(bytes) = one_byte {
            for r in 0..nregs {
                for lane in 0..lanes {
                    let (at, i) = (r * lanes + lane, lane * nregs + r);
                    cur[at] = bytes[i] as u32 ^ partner(at, i);
                }
            }
            self.pos += cur.len();
            return Ok(());
        }
        for lane in 0..lanes {
            for r in 0..nregs {
                let at = r * lanes + lane;
                cur[at] = self.varint()? as u32 ^ partner(at, lane * nregs + r);
            }
        }
        Ok(())
    }

    /// Decode one visit body (the `TAG_VISIT` byte is already consumed)
    /// onto the end of `visits`, transposing its lane-major wire values
    /// into the register-major arena as they are read.
    fn visit(&mut self, visits: &mut Visits, nblocks: usize) -> Result<(), TraceError> {
        let flags = self.byte()?;
        let last = visits.len().checked_sub(1);
        let delta = self.zigzag()?;
        let pc = last
            .map_or(0, |i| visits.pc[i] as i64)
            .checked_add(delta)
            .and_then(|pc| u32::try_from(pc).ok())
            .ok_or_else(|| TraceError::Corrupt(format!("visit pc delta {delta}")))?;
        let (block, warp, exec_mask, guarded_mask) = if flags & FLAG_SAME_CTX != 0 {
            let i = last.ok_or_else(|| {
                TraceError::Corrupt("first visit of a launch claims SAME_CTX".into())
            })?;
            (
                visits.block[i],
                visits.warp[i],
                visits.exec_mask[i],
                visits.guarded_mask[i],
            )
        } else {
            (
                self.varint()? as u32,
                self.byte()?,
                self.varint()? as u32,
                self.varint()? as u32,
            )
        };
        if block as usize >= nblocks {
            return Err(TraceError::Corrupt(format!(
                "visit in block {block} of a {nblocks}-block launch"
            )));
        }
        let n = self.count("value", 1)?;
        if n > MAX_VISIT_VALUES {
            return Err(TraceError::Corrupt(format!(
                "visit holds {n} values, more than 32 lanes of 256 registers"
            )));
        }
        if !whole_rows(n, guarded_mask) {
            return Err(TraceError::Corrupt(format!(
                "visit holds {n} values for {} guarded lanes",
                guarded_mask.count_ones()
            )));
        }
        let xor = flags & FLAG_XOR_VALUES != 0;
        let prev_n = last.map_or(0, |i| visits.len[i] as usize);
        if xor && prev_n != n {
            return Err(TraceError::Corrupt("XOR_VALUES length mismatch".into()));
        }
        // Transpose while reading: wire element `i` (lane `i / nregs`,
        // register `i % nregs`) lands at `r * k + lane` in the arena. The
        // XOR partner is the same wire element of the previous visit: the
        // same arena offset when the lane counts match (the common case,
        // spared the general arm's per-value divisions).
        let k = guarded_mask.count_ones() as usize;
        let partner = last.filter(|_| xor);
        let pk = partner.map_or(0, |i| visits.guarded_mask[i].count_ones() as usize);
        match visits.open(n, partner) {
            (cur, None) => self.values(cur, k, |_, _| 0)?,
            (cur, Some(prev)) if pk == k => self.values(cur, k, |at, _| prev[at])?,
            (cur, Some(prev)) => self.values(cur, k, |_, i| prev[arena_at(i, n, pk)])?,
        }
        visits.push_context(
            Visit {
                pc,
                when: if flags & FLAG_AFTER != 0 {
                    When::After
                } else {
                    When::Before
                },
                block,
                warp,
                exec_mask,
                guarded_mask,
                exceptional: flags & FLAG_EXCEPTIONAL != 0,
                values: &[],
            },
            n,
        );
        Ok(())
    }
}

/// Where wire element `i` of a visit with `n` values over `lanes`
/// guarded lanes sits in the register-major arena: the wire order is
/// lane-major, so element `i` is lane `i / nregs`, register `i % nregs`.
fn arena_at(i: usize, n: usize, lanes: usize) -> usize {
    let nregs = n / lanes;
    (i % nregs) * lanes + i / nregs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut visits = Visits::default();
        visits.push(Visit {
            pc: 2,
            when: When::Before,
            block: 0,
            warp: 0,
            exec_mask: 0x8000_0000,
            guarded_mask: 0x8000_0000,
            exceptional: false,
            values: &[0x3f80_0000, 0x7fc0_0000],
        });
        visits.push(Visit {
            pc: 2,
            when: When::After,
            block: 0,
            warp: 0,
            exec_mask: 0x8000_0000,
            guarded_mask: 0x8000_0000,
            exceptional: true,
            values: &[0x7fc0_0000, 0x7fc0_0000],
        });
        Trace {
            arch: Arch::Ampere,
            fast_math: false,
            program: "unit".into(),
            kernels: vec![KernelMeta {
                name: "k0".into(),
                num_regs: 8,
                num_instrs: 5,
                checksum: 0xdead_beef,
            }],
            launches: vec![LaunchTrace {
                kernel: 0,
                plain_cycles: 1234,
                block_cycles: vec![600, 634],
                visits,
            }],
        }
    }

    #[test]
    fn round_trips() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn adjacent_before_after_compresses() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        // The After visit rides on SAME_CTX + XOR: tag, flags, pc-delta 0,
        // nvalues, one changed + one unchanged value — well under a raw
        // encoding of two masks and two u32 values.
        assert!(bytes.len() < 80, "{} bytes", bytes.len());
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(Trace::from_bytes(b"NOPE....."), Err(TraceError::BadMagic));
        assert_eq!(Trace::from_bytes(b""), Err(TraceError::Truncated));
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = sample_trace().to_bytes();
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Version {
                found: 0xffff,
                supported: VERSION
            })
        );
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample_trace().to_bytes();
        for cut in 0..bytes.len() {
            let err = Trace::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated | TraceError::Corrupt(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_flipped_tag_bytes() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x55;
            // Any single-byte corruption must produce an error or a
            // different trace — never a panic.
            let _ = Trace::from_bytes(&bad);
        }
    }

    /// A stream header for `program` with the given kernel-count varint,
    /// as `to_bytes` writes it.
    fn header(nkernels: u64) -> Writer {
        let mut w = Writer::default();
        w.out.extend_from_slice(&MAGIC);
        w.out.extend_from_slice(&VERSION.to_le_bytes());
        w.out.extend_from_slice(&[1, 0]);
        w.str("unit");
        w.varint(nkernels);
        w
    }

    /// A one-kernel stream opened up to a launch of `nblocks` blocks.
    fn launch(nblocks: u64) -> Writer {
        let mut w = header(1);
        w.str("k0");
        w.varint(8);
        w.varint(5);
        w.varint(1);
        w.out.push(TAG_LAUNCH_START);
        w.varint(0);
        w.varint(100);
        w.varint(nblocks);
        w
    }

    fn corrupt(bytes: &[u8]) -> String {
        match Trace::from_bytes(bytes) {
            Err(TraceError::Corrupt(what)) => what,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn counts_beyond_the_remaining_input_are_corrupt_not_truncated() {
        // 30 kernel entries need at least 120 bytes; 100 remain.
        let mut w = header(30);
        w.out.extend_from_slice(&[0; 100]);
        assert!(corrupt(&w.out).contains("kernel count 30"));
        // 200 block cycles need at least 200 bytes; 100 remain.
        let mut w = launch(200);
        w.out.extend_from_slice(&[0; 100]);
        assert!(corrupt(&w.out).contains("block count 200"));
        // A visit claiming 64 values with 40 bytes left.
        let mut w = launch(1);
        w.varint(7);
        w.out
            .extend_from_slice(&[TAG_VISIT, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff]);
        w.out.extend_from_slice(&[0xff, 0xff, 0xff, 0x0f]);
        w.varint(64);
        w.out.extend_from_slice(&[0; 40]);
        assert!(corrupt(&w.out).contains("value count 64"));
    }

    #[test]
    fn visits_must_stay_inside_their_launch_and_lane_rows() {
        // Block 3 of a 2-block launch.
        let mut w = launch(2);
        w.varint(7);
        w.varint(7);
        w.out.extend_from_slice(&[TAG_VISIT, 0, 0, 3, 0, 1, 1, 0]);
        w.out.extend_from_slice(&[TAG_LAUNCH_END, TAG_EOF, 1]);
        assert!(corrupt(&w.out).contains("block 3"));
        // Three values over two guarded lanes are not whole rows.
        let mut w = launch(1);
        w.varint(7);
        w.out
            .extend_from_slice(&[TAG_VISIT, 0, 0, 0, 0, 3, 3, 3, 1, 2, 3]);
        w.out.extend_from_slice(&[TAG_LAUNCH_END, TAG_EOF, 1]);
        assert!(corrupt(&w.out).contains("3 values for 2 guarded lanes"));
    }

    #[test]
    fn pc_delta_overflow_is_corrupt() {
        // A visit at pc 5, then one whose delta overflows i64.
        let mut w = launch(1);
        w.varint(7);
        w.out.extend_from_slice(&[TAG_VISIT, 0]);
        w.zigzag(5);
        w.out.extend_from_slice(&[0, 0, 1, 1, 0]);
        w.out.extend_from_slice(&[TAG_VISIT, FLAG_SAME_CTX]);
        w.zigzag(i64::MAX);
        w.out.extend_from_slice(&[0, TAG_LAUNCH_END, TAG_EOF, 2]);
        assert!(corrupt(&w.out).contains("pc delta"));
    }

    #[test]
    fn values_go_on_the_wire_lane_major() {
        // Two guarded lanes (1 and 3) × two registers, register-major in
        // the arena: [a1, a3, b1, b3]. The v1 wire holds a1 b1 a3 b3.
        let mut visits = Visits::default();
        visits.push(Visit {
            pc: 0,
            when: When::After,
            block: 0,
            warp: 0,
            exec_mask: 0b1010,
            guarded_mask: 0b1010,
            exceptional: false,
            values: &[10, 11, 20, 21],
        });
        let mut t = sample_trace();
        t.launches[0].visits = visits;
        let bytes = t.to_bytes();
        let tail = [TAG_VISIT, 0b01, 0, 0, 0, 0b1010, 0b1010, 4, 10, 20, 11, 21];
        let at = bytes.len() - tail.len() - 3;
        assert_eq!(bytes[at..at + tail.len()], tail);
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn xor_partner_with_another_lane_count_pairs_by_wire_index() {
        // Equal value counts over different lane counts still XOR-encode:
        // element i of the wire pairs with element i of the previous
        // visit's wire, whatever lanes and registers they belong to.
        let mut t = sample_trace();
        let mut visits = Visits::default();
        for (guarded, values) in [(0b11u32, [1u32, 2, 3, 4]), (0b1111, [1, 3, 5, 7])] {
            visits.push(Visit {
                pc: 4,
                when: When::Before,
                block: 1,
                warp: 2,
                exec_mask: guarded,
                guarded_mask: guarded,
                exceptional: false,
                values: &values,
            });
        }
        t.launches[0].visits = visits;
        let bytes = t.to_bytes();
        // Wire of the first: lanes (0,1) × regs (a,b) = 1 3 2 4; of the
        // second: lanes 0..4 × one reg = 1 3 5 7; XOR = 0 0 7 3.
        let tail = [
            TAG_VISIT,
            FLAG_XOR_VALUES,
            0,
            1,
            2,
            0b1111,
            0b1111,
            4,
            0,
            0,
            7,
            3,
        ];
        let at = bytes.len() - tail.len() - 3;
        assert_eq!(bytes[at..at + tail.len()], tail);
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn visits_never_straddle_arena_blocks() {
        // 96 values, then three of the most a visit can hold: the second
        // large one does not fit behind the first and opens block 1, where
        // it is XOR-encoded against its partner in block 0; the third
        // fills block 1 exactly, and an empty visit follows.
        let big = |seed: u32| -> Vec<u32> {
            (0..MAX_VISIT_VALUES as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9) ^ seed)
                .collect()
        };
        let small: Vec<u32> = (0..96).collect();
        let (a, b, c) = (big(1), big(2), big(3));
        let mut visits = Visits::default();
        for (pc, values) in [(0, &small[..]), (1, &a), (2, &b), (3, &c), (4, &[])] {
            visits.push(Visit {
                pc,
                when: When::After,
                block: 0,
                warp: 0,
                exec_mask: u32::MAX,
                guarded_mask: u32::MAX,
                exceptional: false,
                values,
            });
        }
        assert_eq!(visits.values.len(), 2);
        assert_eq!(visits.values[1].len(), BLOCK);
        let got: Vec<&[u32]> = visits.iter().map(|v| v.values).collect();
        assert_eq!(got, [&small[..], &a, &b, &c, &[]]);
        let mut t = sample_trace();
        t.launches[0].visits = visits;
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.launches[0].visits.values.len(), 2);
    }

    #[test]
    fn to_bytes_allocates_the_encoded_length_exactly() {
        let bytes = sample_trace().to_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn visits_beyond_256_registers_are_corrupt() {
        let mut w = launch(1);
        w.varint(7);
        w.out.extend_from_slice(&[TAG_VISIT, 0, 0, 0, 0]);
        w.varint(u32::MAX as u64);
        w.varint(u32::MAX as u64);
        let n = MAX_VISIT_VALUES + 32;
        w.varint(n as u64);
        w.out.resize(w.out.len() + n, 0);
        w.out.extend_from_slice(&[TAG_LAUNCH_END, TAG_EOF, 1]);
        assert!(corrupt(&w.out).contains("more than 32 lanes of 256 registers"));
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::default();
            w.varint(v);
            let mut r = Reader {
                buf: &w.out,
                pos: 0,
            };
            assert_eq!(r.varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut w = Writer::default();
            w.zigzag(v);
            let mut r = Reader {
                buf: &w.out,
                pos: 0,
            };
            assert_eq!(r.zigzag().unwrap(), v);
        }
    }
}
