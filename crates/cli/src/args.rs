//! Hand-rolled argument parsing (no external dependencies): the small
//! grammar the `gpu-fpx` binary accepts.
//!
//! ```text
//! gpu-fpx detect  <kernel.sass> [options]        run the detector
//! gpu-fpx analyze <kernel.sass> [options]        run the analyzer (+ chains)
//! gpu-fpx binfpe  <kernel.sass> [options]        run the BinFPE baseline
//! gpu-fpx shadow  <kernel.sass> [options]        run the precision sanitizer
//! gpu-fpx stress  <kernel.sass> [options]        search inputs for exceptions
//! gpu-fpx suite list                             list the 151 programs
//! gpu-fpx suite run <name> [options]             run one suite program
//! gpu-fpx trace record <name> [options]          record a suite program's trace
//! gpu-fpx trace replay <file> [options]          replay a trace through a tool
//! gpu-fpx trace export <file> [options]          trace → Chrome trace JSON
//! gpu-fpx metrics <name> [options]               run a suite program, print metrics
//! gpu-fpx inject campaign [options]              run a fault-injection campaign
//! gpu-fpx inject replay [options]                re-run one campaign trial
//! gpu-fpx inject report <file>                   summarize a campaign JSON
//! gpu-fpx prof report <name> [options]           per-phase overhead decomposition
//! gpu-fpx coach <target> [options]               exception-flow timelines + fix coaching
//! gpu-fpx coach rewind <target> [options]        rewind REPL over a coach run
//! gpu-fpx serve start [options]                  run the detection service
//! gpu-fpx serve submit <addr> [options]          submit jobs to a running server
//! gpu-fpx serve metrics <addr>                   print a server's live metrics
//! gpu-fpx serve stop <addr>                      shut a server down
//!
//! options:
//!   --grid N          thread blocks (default 1)
//!   --block N         threads per block (default 32)
//!   --launches N      repeat the launch N times (default 1)
//!   --arch turing|ampere
//!   --threads N       SM worker threads (0 = one per host core, default)
//!   --fast-math       compile suite programs with --use_fast_math
//!   --k N             freq-redn-factor (sampling)
//!   --no-gt           disable the GT deduplication table
//!   --host-check      ablation: check on the host instead of the device
//!   --tool T          (suite run) detector|analyzer|binfpe|shadow
//!   --shadow-mode M   (shadow) full|rpc: FP64 shadows for FP32 ops, or
//!                     truncated reduced-precision checking of FP64 ops
//!                     (default full)
//!   --ulp-budget X    (shadow) relative-error budget in destination-grid
//!                     ulps before a divergence is reported (default 16)
//!   --cancel-threshold N
//!                     (shadow) exponent-drop bits that classify an
//!                     add/sub divergence as cancellation (default 8)
//!   --param SPEC      kernel parameter, in order; SPEC is one of
//!                     f32:<v> | f64:<v> | u32:<v> |
//!                     buf:f32:<v,v,...> | buf:f64:<v,v,...> |
//!                     buf:zeros:<n> | buf:randn:<n> | buf:uninit:<n> |
//!                     out:<n>  (an n-float output buffer)
//!   --dims N          (stress) input lanes to search over (default 32)
//!   --metrics PATH    write a metrics-snapshot JSON after the run
//!   --seed N          global RNG seed: `buf:randn` staging, stress search,
//!                     and inject campaigns (never wall-clock)
//!   --trials N        (inject) campaign trials (default 64)
//!   --trial N         (inject replay) trial index to re-run
//!   --preset NAME     (inject) program pool preset: smoke|table4|serious
//!   --programs A,B    (inject) explicit program pool
//!   --max-faults N    (inject) max faults per trial (default 3)
//!   --backends A,B    (inject) backend columns to score:
//!                     detector|analyzer|binfpe|shadow (default first 3)
//!   --precision-faults
//!                     (inject) arm silent p-flip faults — low-order
//!                     mantissa flips only the shadow backend can see
//!   --trace-dir DIR   (inject campaign) record missed trials as traces here
//!   --profile PATH    write a self-profile after the run: PATH (JSON),
//!                     PATH stem + .collapsed (flamegraph collapsed
//!                     stacks), stem + .chrome.json (Chrome trace)
//!   --chains-dot PATH (analyze, trace replay, serve submit) write
//!                     exception-flow chains as Graphviz
//!   --timeline N      (coach rewind) timeline id to open (default 0)
//!   --script S        (coach rewind) run REPL commands from S (separated
//!                     by `;` or newlines) instead of stdin
//!   --timeline-dot PATH
//!                     (coach) write birth→kill timelines as Graphviz
//!   --with-shadow     (coach) also run the fpx-shadow sanitizer and
//!                     cross-reference cancellation findings
//!   --log-level L     diagnostics verbosity: error|warn|info|debug
//!                     (default warn; FPX_LOG env var, flag wins)
//!   --addr A          (serve start) bind address (default 127.0.0.1:7070;
//!                     port 0 picks a free port, printed on startup)
//!   --workers N       (serve start) job worker threads (default 4)
//!   --queue N         (serve start) job queue bound (default 64)
//!   --cache-dir DIR   (serve start) persist the result cache here
//!   --repeat N        (serve submit) submit each program N times (default 1)
//!   --ndjson          (serve submit) print raw NDJSON result lines
//!                     instead of the decoded reports
//!   --once            (top) render one frame and exit
//!   --interval MS     (top) refresh period in milliseconds (default 1000)
//! ```

use fpx_serve::JobSpec;
use fpx_suite::runner::{Tool, ToolKind};
use std::fmt;

/// A parsed kernel-parameter specification.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamSpec {
    F32(f32),
    F64(f64),
    U32(u32),
    BufF32(Vec<f32>),
    BufF64(Vec<f64>),
    Zeros(u32),
    Randn(u32),
    Uninit(u32),
    Out(u32),
}

/// Common run options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub grid: u32,
    pub block: u32,
    pub launches: u32,
    pub arch: fpx_sim::gpu::Arch,
    pub fast_math: bool,
    pub freq_redn_factor: u32,
    pub use_gt: bool,
    pub device_checking: bool,
    pub tool: ToolKind,
    pub params: Vec<ParamSpec>,
    pub dims: u32,
    /// SM worker threads; 0 means one per available host core.
    pub threads: usize,
    /// `suite run --json`: machine-readable report instead of prose.
    pub json: bool,
    /// `-o` / `--out`: output path for `trace record` / `trace export`.
    pub out: Option<String>,
    /// `--sms`: logical SM tracks in the Chrome-trace export and the
    /// metrics registry's virtual SM shards.
    pub sms: usize,
    /// `--metrics PATH`: write a metrics-snapshot JSON after the run.
    pub metrics: Option<String>,
    /// `--seed N`: global RNG seed (randn staging, stress search, inject
    /// campaigns). `None` keeps each consumer's fixed default — never
    /// wall-clock.
    pub seed: Option<u64>,
    /// `--trials N` (inject campaign).
    pub trials: u32,
    /// `--trial N` (inject replay): the trial index to re-derive.
    pub trial: Option<u32>,
    /// `--preset NAME` (inject): named program pool.
    pub preset: Option<String>,
    /// `--programs A,B,..` (inject): explicit program pool.
    pub programs: Vec<String>,
    /// `--max-faults N` (inject): faults per trial ceiling.
    pub max_faults: u32,
    /// `--backends A,B,..` (inject): backend columns to score, each named
    /// once; empty = the default detector/analyzer/binfpe set.
    pub backends: Vec<ToolKind>,
    /// `--precision-faults` (inject): arm silent p-flip faults.
    pub precision_faults: bool,
    /// `--trace-dir DIR` (inject campaign): record missed trials here.
    pub trace_dir: Option<String>,
    /// `--profile PATH`: write the self-profile (JSON + collapsed stacks
    /// + Chrome trace) after the run.
    pub profile: Option<String>,
    /// `--chains-dot PATH` (analyze): write flow chains as Graphviz DOT.
    pub chains_dot: Option<String>,
    /// `--log-level L`: diagnostics verbosity; `None` keeps the
    /// `FPX_LOG` / default-warn setting.
    pub log_level: Option<fpx_obs::log::Level>,
    /// `--addr A` (serve start): bind address; `None` = 127.0.0.1:7070.
    pub addr: Option<String>,
    /// `--workers N` (serve start): job worker threads.
    pub workers: usize,
    /// `--queue N` (serve start): job queue bound.
    pub queue: usize,
    /// `--cache-dir DIR` (serve start): persist the result cache here.
    pub cache_dir: Option<String>,
    /// `--repeat N` (serve submit): submit each program N times.
    pub repeat: u32,
    /// `--ndjson` (serve submit): print raw result lines.
    pub ndjson: bool,
    /// `--timeline N` (coach rewind): timeline id to open.
    pub timeline: usize,
    /// `--script S` (coach rewind): non-interactive REPL command list.
    pub script: Option<String>,
    /// `--timeline-dot PATH` (coach): write timelines as Graphviz DOT.
    pub timeline_dot: Option<String>,
    /// `--with-shadow` (coach): cross-reference fpx-shadow findings.
    pub with_shadow: bool,
    /// `--shadow-mode M` (shadow): full FP64 shadows vs. RPC truncation.
    pub shadow_mode: fpx_shadow::ShadowMode,
    /// `--ulp-budget X` (shadow): relative-error budget in grid ulps.
    pub ulp_budget: f64,
    /// `--cancel-threshold N` (shadow): cancellation exponent-drop bits.
    pub cancel_threshold: u32,
    /// `--once` (top): render a single frame and exit.
    pub once: bool,
    /// `--interval MS` (top): refresh period in milliseconds.
    pub interval_ms: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            grid: 1,
            block: 32,
            launches: 1,
            arch: fpx_sim::gpu::Arch::Ampere,
            fast_math: false,
            freq_redn_factor: 0,
            use_gt: true,
            device_checking: true,
            tool: ToolKind::Detector,
            params: Vec::new(),
            dims: 32,
            threads: 0,
            json: false,
            out: None,
            sms: 8,
            metrics: None,
            seed: None,
            trials: 64,
            trial: None,
            preset: None,
            programs: Vec::new(),
            max_faults: 3,
            backends: Vec::new(),
            precision_faults: false,
            trace_dir: None,
            profile: None,
            chains_dot: None,
            log_level: None,
            addr: None,
            workers: 4,
            queue: 64,
            cache_dir: None,
            repeat: 1,
            ndjson: false,
            timeline: 0,
            script: None,
            timeline_dot: None,
            with_shadow: false,
            shadow_mode: fpx_shadow::ShadowMode::Full,
            ulp_budget: fpx_shadow::ShadowConfig::default().ulp_budget,
            cancel_threshold: fpx_shadow::ShadowConfig::default().cancel_threshold,
            once: false,
            interval_ms: 1000,
        }
    }
}

impl RunOpts {
    /// The job these options describe for `program` — the one place the
    /// CLI maps its tool flags. `suite run` and `serve submit` run it as
    /// is; every other command configures its tools through it.
    pub fn job_spec(&self, program: &str) -> JobSpec {
        JobSpec {
            program: program.to_string(),
            tool: self.tool,
            arch: self.arch,
            fast_math: self.fast_math,
            freq_redn_factor: self.freq_redn_factor,
            use_gt: self.use_gt,
            device_checking: self.device_checking,
            json: self.json,
            chains_dot: self.chains_dot.is_some(),
            shadow_mode: self.shadow_mode,
            shadow_ulp_budget: self.ulp_budget,
            shadow_cancel_threshold: self.cancel_threshold,
        }
    }

    /// `kind` configured by these options.
    pub fn runner_tool(&self, kind: ToolKind) -> Tool {
        JobSpec {
            tool: kind,
            ..self.job_spec("")
        }
        .runner_tool()
    }

    /// The SM worker-pool size to configure on the simulated GPU:
    /// `--threads N` verbatim, or one worker per available host core when
    /// the flag is absent (0).
    pub fn resolved_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    Detect { path: String, opts: RunOpts },
    Analyze { path: String, opts: RunOpts },
    BinFpe { path: String, opts: RunOpts },
    Shadow { path: String, opts: RunOpts },
    Stress { path: String, opts: RunOpts },
    SuiteList,
    SuiteRun { name: String, opts: RunOpts },
    TraceRecord { name: String, opts: RunOpts },
    TraceReplay { file: String, opts: RunOpts },
    TraceExport { file: String, opts: RunOpts },
    Metrics { name: String, opts: RunOpts },
    InjectCampaign { opts: RunOpts },
    InjectReplay { opts: RunOpts },
    InjectReport { file: String, opts: RunOpts },
    ProfReport { name: String, opts: RunOpts },
    Coach { target: String, opts: RunOpts },
    CoachRewind { target: String, opts: RunOpts },
    ServeStart { opts: RunOpts },
    ServeSubmit { addr: String, opts: RunOpts },
    ServeMetrics { addr: String, opts: RunOpts },
    ServeStop { addr: String, opts: RunOpts },
    Top { addr: String, opts: RunOpts },
    Help,
}

impl Command {
    /// The `--log-level` flag's value, from whichever variant carries
    /// run options.
    pub fn log_level(&self) -> Option<fpx_obs::log::Level> {
        match self {
            Command::Detect { opts, .. }
            | Command::Analyze { opts, .. }
            | Command::BinFpe { opts, .. }
            | Command::Shadow { opts, .. }
            | Command::Stress { opts, .. }
            | Command::SuiteRun { opts, .. }
            | Command::TraceRecord { opts, .. }
            | Command::TraceReplay { opts, .. }
            | Command::TraceExport { opts, .. }
            | Command::Metrics { opts, .. }
            | Command::InjectCampaign { opts }
            | Command::InjectReplay { opts }
            | Command::InjectReport { opts, .. }
            | Command::ProfReport { opts, .. }
            | Command::Coach { opts, .. }
            | Command::CoachRewind { opts, .. }
            | Command::ServeStart { opts }
            | Command::ServeSubmit { opts, .. }
            | Command::ServeMetrics { opts, .. }
            | Command::ServeStop { opts, .. }
            | Command::Top { opts, .. } => opts.log_level,
            Command::SuiteList | Command::Help => None,
        }
    }
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<&str>) -> Result<T, ArgError> {
    let v = v.ok_or_else(|| err(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| err(format!("{flag}: cannot parse {v:?}")))
}

/// Parse one `--param` specification.
pub fn parse_param(spec: &str) -> Result<ParamSpec, ArgError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["f32", v] => Ok(ParamSpec::F32(
            v.parse().map_err(|_| err(format!("bad f32 {v:?}")))?,
        )),
        ["f64", v] => Ok(ParamSpec::F64(
            v.parse().map_err(|_| err(format!("bad f64 {v:?}")))?,
        )),
        ["u32", v] => Ok(ParamSpec::U32(
            v.parse().map_err(|_| err(format!("bad u32 {v:?}")))?,
        )),
        ["buf", "f32", vals] => Ok(ParamSpec::BufF32(
            vals.split(',')
                .map(|v| v.trim().parse().map_err(|_| err(format!("bad f32 {v:?}"))))
                .collect::<Result<_, _>>()?,
        )),
        ["buf", "f64", vals] => Ok(ParamSpec::BufF64(
            vals.split(',')
                .map(|v| v.trim().parse().map_err(|_| err(format!("bad f64 {v:?}"))))
                .collect::<Result<_, _>>()?,
        )),
        ["buf", "zeros", n] => Ok(ParamSpec::Zeros(parse_num("buf:zeros", Some(n))?)),
        ["buf", "randn", n] => Ok(ParamSpec::Randn(parse_num("buf:randn", Some(n))?)),
        ["buf", "uninit", n] => Ok(ParamSpec::Uninit(parse_num("buf:uninit", Some(n))?)),
        ["out", n] => Ok(ParamSpec::Out(parse_num("out", Some(n))?)),
        _ => Err(err(format!("unrecognized --param spec {spec:?}"))),
    }
}

fn parse_opts(args: &[String]) -> Result<RunOpts, ArgError> {
    let mut o = RunOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => o.grid = parse_num("--grid", it.next().map(|s| s.as_str()))?,
            "--block" => o.block = parse_num("--block", it.next().map(|s| s.as_str()))?,
            "--launches" => o.launches = parse_num("--launches", it.next().map(|s| s.as_str()))?,
            "--k" => o.freq_redn_factor = parse_num("--k", it.next().map(|s| s.as_str()))?,
            "--threads" => o.threads = parse_num("--threads", it.next().map(|s| s.as_str()))?,
            "--dims" => o.dims = parse_num("--dims", it.next().map(|s| s.as_str()))?,
            "--arch" => {
                o.arch = match it.next().map(|s| s.as_str()) {
                    Some("turing") => fpx_sim::gpu::Arch::Turing,
                    Some("ampere") => fpx_sim::gpu::Arch::Ampere,
                    other => return Err(err(format!("--arch: turing|ampere, got {other:?}"))),
                };
            }
            "--tool" => {
                let v = it.next().map(|s| s.as_str());
                o.tool = v.and_then(ToolKind::parse).ok_or_else(|| {
                    err(format!(
                        "--tool: detector|analyzer|binfpe|shadow, got {v:?}"
                    ))
                })?;
            }
            "--shadow-mode" => {
                let v = it.next().map(|s| s.as_str());
                o.shadow_mode = v
                    .and_then(fpx_shadow::ShadowMode::parse)
                    .ok_or_else(|| err(format!("--shadow-mode: full|rpc, got {v:?}")))?;
            }
            "--ulp-budget" => {
                o.ulp_budget = parse_num("--ulp-budget", it.next().map(|s| s.as_str()))?;
                if o.ulp_budget.is_nan() || o.ulp_budget < 0.0 {
                    return Err(err("--ulp-budget must be a non-negative number"));
                }
            }
            "--cancel-threshold" => {
                o.cancel_threshold =
                    parse_num("--cancel-threshold", it.next().map(|s| s.as_str()))?;
            }
            "--param" => {
                let spec = it.next().ok_or_else(|| err("--param needs a value"))?;
                o.params.push(parse_param(spec)?);
            }
            "--seed" => o.seed = Some(parse_num("--seed", it.next().map(|s| s.as_str()))?),
            "--trials" => o.trials = parse_num("--trials", it.next().map(|s| s.as_str()))?,
            "--trial" => o.trial = Some(parse_num("--trial", it.next().map(|s| s.as_str()))?),
            "--max-faults" => {
                o.max_faults = parse_num("--max-faults", it.next().map(|s| s.as_str()))?;
                if o.max_faults == 0 {
                    return Err(err("--max-faults must be positive"));
                }
            }
            "--backends" => {
                let list = it.next().ok_or_else(|| err("--backends needs a list"))?;
                o.backends.clear();
                for s in list.split(',') {
                    let b = ToolKind::parse(s.trim()).ok_or_else(|| {
                        err(format!(
                            "--backends: detector|analyzer|binfpe|shadow, got {s:?}"
                        ))
                    })?;
                    if o.backends.contains(&b) {
                        return Err(err(format!("--backends: {} named twice", b.label())));
                    }
                    o.backends.push(b);
                }
            }
            "--precision-faults" => o.precision_faults = true,
            "--preset" => {
                o.preset = Some(
                    it.next()
                        .ok_or_else(|| err("--preset needs a name"))?
                        .clone(),
                )
            }
            "--programs" => {
                let list = it.next().ok_or_else(|| err("--programs needs a list"))?;
                o.programs = list
                    .split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect();
                if o.programs.is_empty() {
                    return Err(err("--programs: empty list"));
                }
            }
            "--trace-dir" => {
                o.trace_dir = Some(
                    it.next()
                        .ok_or_else(|| err("--trace-dir needs a directory"))?
                        .clone(),
                )
            }
            "--profile" => {
                o.profile = Some(
                    it.next()
                        .ok_or_else(|| err("--profile needs a file path"))?
                        .clone(),
                )
            }
            "--chains-dot" => {
                o.chains_dot = Some(
                    it.next()
                        .ok_or_else(|| err("--chains-dot needs a file path"))?
                        .clone(),
                )
            }
            "--log-level" => {
                let v = it.next().ok_or_else(|| err("--log-level needs a value"))?;
                o.log_level = Some(fpx_obs::log::parse_level(v).ok_or_else(|| {
                    err(format!("--log-level: error|warn|info|debug, got {v:?}"))
                })?);
            }
            "--addr" => {
                o.addr = Some(
                    it.next()
                        .ok_or_else(|| err("--addr needs an address"))?
                        .clone(),
                )
            }
            "--workers" => o.workers = parse_num("--workers", it.next().map(|s| s.as_str()))?,
            "--queue" => {
                o.queue = parse_num("--queue", it.next().map(|s| s.as_str()))?;
                if o.queue == 0 {
                    return Err(err("--queue must be positive"));
                }
            }
            "--cache-dir" => {
                o.cache_dir = Some(
                    it.next()
                        .ok_or_else(|| err("--cache-dir needs a directory"))?
                        .clone(),
                )
            }
            "--repeat" => {
                o.repeat = parse_num("--repeat", it.next().map(|s| s.as_str()))?;
                if o.repeat == 0 {
                    return Err(err("--repeat must be positive"));
                }
            }
            "--ndjson" => o.ndjson = true,
            "--once" => o.once = true,
            "--interval" => {
                o.interval_ms = parse_num("--interval", it.next().map(|s| s.as_str()))?;
                if o.interval_ms == 0 {
                    return Err(err("--interval must be positive"));
                }
            }
            "--timeline" => o.timeline = parse_num("--timeline", it.next().map(|s| s.as_str()))?,
            "--script" => {
                o.script = Some(
                    it.next()
                        .ok_or_else(|| err("--script needs a command list"))?
                        .clone(),
                )
            }
            "--timeline-dot" => {
                o.timeline_dot = Some(
                    it.next()
                        .ok_or_else(|| err("--timeline-dot needs a file path"))?
                        .clone(),
                )
            }
            "--with-shadow" => o.with_shadow = true,
            "--fast-math" => o.fast_math = true,
            "--no-gt" => o.use_gt = false,
            "--host-check" => o.device_checking = false,
            "--json" => o.json = true,
            "-o" | "--out" => {
                o.out = Some(
                    it.next()
                        .ok_or_else(|| err(format!("{a} needs a file path")))?
                        .clone(),
                )
            }
            "--metrics" => {
                o.metrics = Some(
                    it.next()
                        .ok_or_else(|| err("--metrics needs a file path"))?
                        .clone(),
                )
            }
            "--sms" => {
                o.sms = parse_num("--sms", it.next().map(|s| s.as_str()))?;
                if o.sms == 0 {
                    return Err(err("--sms must be positive"));
                }
            }
            other => return Err(err(format!("unknown option {other:?}"))),
        }
    }
    if o.block == 0 || o.grid == 0 || o.launches == 0 {
        return Err(err("--grid/--block/--launches must be positive"));
    }
    Ok(o)
}

/// Parse a full command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "detect" | "analyze" | "binfpe" | "shadow" | "stress" => {
            let path = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| err(format!("{cmd} needs a SASS file path")))?
                .clone();
            let opts = parse_opts(&args[2..])?;
            Ok(match cmd.as_str() {
                "detect" => Command::Detect { path, opts },
                "analyze" => Command::Analyze { path, opts },
                "binfpe" => Command::BinFpe { path, opts },
                "shadow" => Command::Shadow { path, opts },
                _ => Command::Stress { path, opts },
            })
        }
        "metrics" => {
            let name = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| err("metrics needs a suite program name"))?
                .clone();
            let opts = parse_opts(&args[2..])?;
            Ok(Command::Metrics { name, opts })
        }
        "suite" => match args.get(1).map(|s| s.as_str()) {
            Some("list") => Ok(Command::SuiteList),
            Some("run") => {
                let name = args
                    .get(2)
                    .ok_or_else(|| err("suite run needs a program name"))?
                    .clone();
                let opts = parse_opts(&args[3..])?;
                Ok(Command::SuiteRun { name, opts })
            }
            other => Err(err(format!("suite: list|run, got {other:?}"))),
        },
        "trace" => {
            let sub = args.get(1).map(|s| s.as_str());
            let operand = args
                .get(2)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| match sub {
                    Some("record") => err("trace record needs a program name"),
                    _ => err(format!("trace {} needs a trace file", sub.unwrap_or("?"))),
                });
            match sub {
                Some("record") => Ok(Command::TraceRecord {
                    name: operand?.clone(),
                    opts: parse_opts(&args[3..])?,
                }),
                Some("replay") => Ok(Command::TraceReplay {
                    file: operand?.clone(),
                    opts: parse_opts(&args[3..])?,
                }),
                Some("export") => Ok(Command::TraceExport {
                    file: operand?.clone(),
                    opts: parse_opts(&args[3..])?,
                }),
                other => Err(err(format!("trace: record|replay|export, got {other:?}"))),
            }
        }
        "inject" => match args.get(1).map(|s| s.as_str()) {
            Some("campaign") => Ok(Command::InjectCampaign {
                opts: parse_opts(&args[2..])?,
            }),
            Some("replay") => {
                let opts = parse_opts(&args[2..])?;
                if opts.trial.is_none() {
                    return Err(err("inject replay needs --trial N"));
                }
                Ok(Command::InjectReplay { opts })
            }
            Some("report") => {
                let file = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| err("inject report needs a campaign JSON file"))?
                    .clone();
                Ok(Command::InjectReport {
                    file,
                    opts: parse_opts(&args[3..])?,
                })
            }
            other => Err(err(format!(
                "inject: campaign|replay|report, got {other:?}"
            ))),
        },
        "prof" => match args.get(1).map(|s| s.as_str()) {
            Some("report") => {
                let name = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| err("prof report needs a suite program name"))?
                    .clone();
                Ok(Command::ProfReport {
                    name,
                    opts: parse_opts(&args[3..])?,
                })
            }
            other => Err(err(format!("prof: report, got {other:?}"))),
        },
        "coach" => match args.get(1).map(|s| s.as_str()) {
            Some("rewind") => {
                let target = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| err("coach rewind needs a program name or trace file"))?
                    .clone();
                Ok(Command::CoachRewind {
                    target,
                    opts: parse_opts(&args[3..])?,
                })
            }
            Some(t) if !t.starts_with("--") => Ok(Command::Coach {
                target: t.to_string(),
                opts: parse_opts(&args[2..])?,
            }),
            _ => Err(err("coach needs a program name or trace file")),
        },
        "serve" => match args.get(1).map(|s| s.as_str()) {
            Some("start") => Ok(Command::ServeStart {
                opts: parse_opts(&args[2..])?,
            }),
            Some(sub @ ("submit" | "metrics" | "stop")) => {
                let addr = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| err(format!("serve {sub} needs a server address")))?
                    .clone();
                let opts = parse_opts(&args[3..])?;
                Ok(match sub {
                    "submit" => {
                        if opts.programs.is_empty() {
                            return Err(err("serve submit needs --programs A,B,..."));
                        }
                        Command::ServeSubmit { addr, opts }
                    }
                    "metrics" => Command::ServeMetrics { addr, opts },
                    _ => Command::ServeStop { addr, opts },
                })
            }
            other => Err(err(format!(
                "serve: start|submit|metrics|stop, got {other:?}"
            ))),
        },
        "top" => {
            let addr = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| err("top needs a server address"))?
                .clone();
            Ok(Command::Top {
                addr,
                opts: parse_opts(&args[2..])?,
            })
        }
        other => Err(err(format!(
            "unknown command {other:?}; try `gpu-fpx help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_detect_with_options() {
        let c = parse(&s(&[
            "detect", "k.sass", "--grid", "4", "--block", "64", "--k", "16", "--no-gt", "--arch",
            "turing",
        ]))
        .unwrap();
        match c {
            Command::Detect { path, opts } => {
                assert_eq!(path, "k.sass");
                assert_eq!(opts.grid, 4);
                assert_eq!(opts.block, 64);
                assert_eq!(opts.freq_redn_factor, 16);
                assert!(!opts.use_gt);
                assert_eq!(opts.arch, fpx_sim::gpu::Arch::Turing);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_param_specs() {
        assert_eq!(parse_param("f32:1.5").unwrap(), ParamSpec::F32(1.5));
        assert_eq!(parse_param("u32:7").unwrap(), ParamSpec::U32(7));
        assert_eq!(
            parse_param("buf:f32:1,2,3").unwrap(),
            ParamSpec::BufF32(vec![1.0, 2.0, 3.0])
        );
        assert_eq!(parse_param("buf:zeros:128").unwrap(), ParamSpec::Zeros(128));
        assert_eq!(parse_param("out:64").unwrap(), ParamSpec::Out(64));
        assert!(parse_param("bogus:1").is_err());
        assert!(parse_param("buf:f32:1,x").is_err());
    }

    #[test]
    fn parses_threads_and_resolves_auto() {
        match parse(&s(&["detect", "k.sass", "--threads", "4"])).unwrap() {
            Command::Detect { opts, .. } => {
                assert_eq!(opts.threads, 4);
                assert_eq!(opts.resolved_threads(), 4);
            }
            other => panic!("{other:?}"),
        }
        let auto = RunOpts::default();
        assert_eq!(auto.threads, 0, "default is auto");
        assert!(auto.resolved_threads() >= 1, "auto resolves to the host");
    }

    #[test]
    fn parses_coach_and_rewind() {
        match parse(&s(&[
            "coach",
            "GRAMSCHM",
            "--with-shadow",
            "--timeline-dot",
            "t.dot",
        ]))
        .unwrap()
        {
            Command::Coach { target, opts } => {
                assert_eq!(target, "GRAMSCHM");
                assert!(opts.with_shadow);
                assert_eq!(opts.timeline_dot.as_deref(), Some("t.dot"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&[
            "coach",
            "rewind",
            "g.fpxtrace",
            "--timeline",
            "2",
            "--script",
            "goto 1;state;quit",
        ]))
        .unwrap()
        {
            Command::CoachRewind { target, opts } => {
                assert_eq!(target, "g.fpxtrace");
                assert_eq!(opts.timeline, 2);
                assert_eq!(opts.script.as_deref(), Some("goto 1;state;quit"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&s(&["coach"])).is_err());
        assert!(parse(&s(&["coach", "rewind"])).is_err());
        assert!(parse(&s(&["coach", "--json"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&s(&["detect"])).is_err());
        assert!(parse(&s(&["detect", "k.sass", "--grid", "zero"])).is_err());
        assert!(parse(&s(&["detect", "k.sass", "--grid", "0"])).is_err());
        assert!(parse(&s(&["frobnicate"])).is_err());
        assert!(parse(&s(&["suite", "bogus"])).is_err());
    }

    #[test]
    fn suite_commands() {
        assert!(matches!(
            parse(&s(&["suite", "list"])).unwrap(),
            Command::SuiteList
        ));
        match parse(&s(&[
            "suite",
            "run",
            "myocyte",
            "--tool",
            "binfpe",
            "--fast-math",
        ]))
        .unwrap()
        {
            Command::SuiteRun { name, opts } => {
                assert_eq!(name, "myocyte");
                assert_eq!(opts.tool, ToolKind::BinFpe);
                assert!(opts.fast_math);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_commands() {
        match parse(&s(&["trace", "record", "myocyte", "-o", "m.fpxtrace"])).unwrap() {
            Command::TraceRecord { name, opts } => {
                assert_eq!(name, "myocyte");
                assert_eq!(opts.out.as_deref(), Some("m.fpxtrace"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&[
            "trace",
            "replay",
            "m.fpxtrace",
            "--tool",
            "analyzer",
            "--k",
            "64",
        ]))
        .unwrap()
        {
            Command::TraceReplay { file, opts } => {
                assert_eq!(file, "m.fpxtrace");
                assert_eq!(opts.tool, ToolKind::Analyzer);
                assert_eq!(opts.freq_redn_factor, 64);
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&["trace", "export", "m.fpxtrace", "--sms", "4"])).unwrap() {
            Command::TraceExport { file, opts } => {
                assert_eq!(file, "m.fpxtrace");
                assert_eq!(opts.sms, 4);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&s(&["trace", "record"])).is_err());
        assert!(parse(&s(&["trace", "bogus", "x"])).is_err());
        assert!(parse(&s(&["trace", "export", "f", "--sms", "0"])).is_err());
    }

    #[test]
    fn metrics_command_and_flag() {
        match parse(&s(&["metrics", "GRAMSCHM", "--sms", "4"])).unwrap() {
            Command::Metrics { name, opts } => {
                assert_eq!(name, "GRAMSCHM");
                assert_eq!(opts.sms, 4);
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&["suite", "run", "LU", "--metrics", "out.json"])).unwrap() {
            Command::SuiteRun { opts, .. } => {
                assert_eq!(opts.metrics.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&s(&["metrics"])).is_err());
        assert!(parse(&s(&["suite", "run", "LU", "--metrics"])).is_err());
    }

    #[test]
    fn suite_run_accepts_json() {
        match parse(&s(&["suite", "run", "LU", "--json"])).unwrap() {
            Command::SuiteRun { opts, .. } => assert!(opts.json),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_args_mean_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn profile_and_log_level_flags() {
        match parse(&s(&["suite", "run", "LU", "--profile", "p.json"])).unwrap() {
            Command::SuiteRun { opts, .. } => {
                assert_eq!(opts.profile.as_deref(), Some("p.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&["detect", "k.sass", "--log-level", "debug"])).unwrap() {
            Command::Detect { opts, .. } => {
                assert_eq!(opts.log_level, Some(fpx_obs::log::Level::Debug));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&s(&["detect", "k.sass", "--log-level", "loud"])).is_err());
        assert!(parse(&s(&["detect", "k.sass", "--profile"])).is_err());
    }

    #[test]
    fn chains_dot_and_prof_report() {
        match parse(&s(&["analyze", "k.sass", "--chains-dot", "c.dot"])).unwrap() {
            Command::Analyze { opts, .. } => {
                assert_eq!(opts.chains_dot.as_deref(), Some("c.dot"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&["prof", "report", "GRAMSCHM", "--threads", "2"])).unwrap() {
            Command::ProfReport { name, opts } => {
                assert_eq!(name, "GRAMSCHM");
                assert_eq!(opts.threads, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&s(&["prof", "report"])).is_err());
        assert!(parse(&s(&["prof", "bogus"])).is_err());
    }

    #[test]
    fn shadow_command_and_flags() {
        match parse(&s(&[
            "shadow",
            "k.sass",
            "--shadow-mode",
            "rpc",
            "--ulp-budget",
            "0.5",
            "--cancel-threshold",
            "12",
        ]))
        .unwrap()
        {
            Command::Shadow { path, opts } => {
                assert_eq!(path, "k.sass");
                assert_eq!(opts.shadow_mode, fpx_shadow::ShadowMode::Rpc);
                assert_eq!(opts.ulp_budget, 0.5);
                assert_eq!(opts.cancel_threshold, 12);
                let sc = opts.job_spec("k.sass").shadow_config();
                assert_eq!(sc.mode, fpx_shadow::ShadowMode::Rpc);
                assert_eq!(sc.ulp_budget, 0.5);
                assert_eq!(sc.cancel_threshold, 12);
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&["suite", "run", "GRAMSCHM", "--tool", "shadow"])).unwrap() {
            Command::SuiteRun { opts, .. } => assert_eq!(opts.tool, ToolKind::Shadow),
            other => panic!("{other:?}"),
        }
        assert!(parse(&s(&["shadow"])).is_err());
        assert!(parse(&s(&["shadow", "k.sass", "--shadow-mode", "loose"])).is_err());
        assert!(parse(&s(&["shadow", "k.sass", "--ulp-budget", "-1"])).is_err());
        assert!(parse(&s(&["shadow", "k.sass", "--ulp-budget", "NaN"])).is_err());
    }

    #[test]
    fn seed_flag_is_global() {
        for cmdline in [
            vec!["detect", "k.sass", "--seed", "99"],
            vec!["suite", "run", "LU", "--seed", "99"],
            vec!["stress", "k.sass", "--seed", "99"],
        ] {
            let opts = match parse(&s(&cmdline)).unwrap() {
                Command::Detect { opts, .. } => opts,
                Command::SuiteRun { opts, .. } => opts,
                Command::Stress { opts, .. } => opts,
                other => panic!("{other:?}"),
            };
            assert_eq!(opts.seed, Some(99));
        }
        assert_eq!(
            RunOpts::default().seed,
            None,
            "default is fixed, not random"
        );
    }

    #[test]
    fn inject_commands() {
        match parse(&s(&[
            "inject",
            "campaign",
            "--preset",
            "smoke",
            "--seed",
            "7",
            "--trials",
            "256",
            "--max-faults",
            "2",
            "--trace-dir",
            "out",
            "--backends",
            "detector,shadow",
            "--precision-faults",
        ]))
        .unwrap()
        {
            Command::InjectCampaign { opts } => {
                assert_eq!(opts.preset.as_deref(), Some("smoke"));
                assert_eq!(opts.seed, Some(7));
                assert_eq!(opts.trials, 256);
                assert_eq!(opts.max_faults, 2);
                assert_eq!(opts.trace_dir.as_deref(), Some("out"));
                assert_eq!(opts.backends, vec![ToolKind::Detector, ToolKind::Shadow]);
                assert!(opts.precision_faults);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            !RunOpts::default().precision_faults && RunOpts::default().backends.is_empty(),
            "silent faults and the shadow column are strictly opt-in"
        );
        assert!(parse(&s(&["inject", "campaign", "--backends", "bogus"])).is_err());
        let repeated = parse(&s(&[
            "inject",
            "campaign",
            "--backends",
            "detector,shadow,detector",
        ]))
        .unwrap_err();
        assert_eq!(repeated.0, "--backends: detector named twice");
        match parse(&s(&[
            "inject",
            "replay",
            "--programs",
            "GRAMSCHM,LU",
            "--seed",
            "7",
            "--trial",
            "12",
        ]))
        .unwrap()
        {
            Command::InjectReplay { opts } => {
                assert_eq!(opts.programs, vec!["GRAMSCHM", "LU"]);
                assert_eq!(opts.trial, Some(12));
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&["inject", "report", "c.json"])).unwrap() {
            Command::InjectReport { file, .. } => assert_eq!(file, "c.json"),
            other => panic!("{other:?}"),
        }
        // replay without --trial, report without a file, bad subcommand.
        assert!(parse(&s(&["inject", "replay", "--seed", "7"])).is_err());
        assert!(parse(&s(&["inject", "report"])).is_err());
        assert!(parse(&s(&["inject", "bogus"])).is_err());
        assert!(parse(&s(&["inject", "campaign", "--max-faults", "0"])).is_err());
        assert!(parse(&s(&["inject", "campaign", "--programs", ","])).is_err());
    }

    #[test]
    fn serve_commands() {
        match parse(&s(&[
            "serve",
            "start",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "8",
            "--cache-dir",
            "cache",
        ]))
        .unwrap()
        {
            Command::ServeStart { opts } => {
                assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(opts.workers, 2);
                assert_eq!(opts.queue, 8);
                assert_eq!(opts.cache_dir.as_deref(), Some("cache"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&s(&[
            "serve",
            "submit",
            "127.0.0.1:7070",
            "--programs",
            "LU,GRAMSCHM",
            "--repeat",
            "3",
            "--ndjson",
        ]))
        .unwrap()
        {
            Command::ServeSubmit { addr, opts } => {
                assert_eq!(addr, "127.0.0.1:7070");
                assert_eq!(opts.programs, vec!["LU", "GRAMSCHM"]);
                assert_eq!(opts.repeat, 3);
                assert!(opts.ndjson);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&s(&["serve", "metrics", "127.0.0.1:7070"])).unwrap(),
            Command::ServeMetrics { .. }
        ));
        assert!(matches!(
            parse(&s(&["serve", "stop", "127.0.0.1:7070"])).unwrap(),
            Command::ServeStop { .. }
        ));
        match parse(&s(&[
            "top",
            "127.0.0.1:7070",
            "--once",
            "--json",
            "--interval",
            "250",
        ]))
        .unwrap()
        {
            Command::Top { addr, opts } => {
                assert_eq!(addr, "127.0.0.1:7070");
                assert!(opts.once);
                assert!(opts.json);
                assert_eq!(opts.interval_ms, 250);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&s(&["top"])).is_err(), "top needs an address");
        assert!(
            parse(&s(&["top", "a", "--interval", "0"])).is_err(),
            "zero interval rejected"
        );
        // Missing address, missing --programs, zero repeat/queue, bad sub.
        assert!(parse(&s(&["serve", "submit"])).is_err());
        assert!(parse(&s(&["serve", "submit", "127.0.0.1:7070"])).is_err());
        assert!(parse(&s(&[
            "serve",
            "submit",
            "a",
            "--programs",
            "LU",
            "--repeat",
            "0"
        ]))
        .is_err());
        assert!(parse(&s(&["serve", "start", "--queue", "0"])).is_err());
        assert!(parse(&s(&["serve", "bogus"])).is_err());
    }
}
