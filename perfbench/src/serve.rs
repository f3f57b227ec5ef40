//! `serve`: a `gpu-fpx serve start` process on an ephemeral loopback
//! port with a cold cache, driven by a closed loop of `nproc` client
//! connections, one job per `POST /v1/jobs`. Keys follow a seeded
//! Zipf stream, so each key's first request misses and most requests
//! hit: hits exercise HTTP, the engine hand-off, cache reads and the
//! enabled telemetry; misses add cache writes and the live path.

use crate::jobs::{self, Stream};
use crate::live;
use crate::report::{peak_rss_mib, Digest, Report};
use crate::spans::{Layers, Tracer};
use crate::{check, stats, sweep, Ctx};
use fpx_obs::Obs;
use fpx_prof::Prof;
use fpx_serve::engine::{Engine, EngineConfig, Outcome};
use fpx_serve::job::{self, JobSpec};
use fpx_serve::proto;
use fpx_sim::gpu::Arch;
use fpx_suite::runner::RunnerConfig;
use fpx_trace::{CacheKey, ResultCache};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print `listening on`, and to exit
/// after `POST /v1/shutdown`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);
/// Warm in-process engine hits timed for `serve.engine_hit_us`.
const ENGINE_HITS: usize = 2000;
/// Cache operations timed per key for `cache.*`.
const CACHE_ROUNDS: usize = 200;

/// A running `gpu-fpx serve start` child. Dropping it kills the child,
/// so no server outlives a failed run.
struct Server {
    child: Option<Child>,
    pid: u32,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    fn spawn(ctx: &Ctx) -> Result<Server, String> {
        let log_path = ctx.work.join("serve-stderr.log");
        let log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let mut child = Command::new(&ctx.gpu_fpx)
            .args(["serve", "start", "--addr", "127.0.0.1:0", "--workers"])
            .arg(ctx.nproc.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("{}: {e}", ctx.gpu_fpx.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Read the ready line, then drain the pipe until the child exits.
        let drain = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            let _ = tx.send(r.read_line(&mut line).map(|_| line));
            let _ = std::io::copy(&mut r, &mut std::io::sink());
        });
        let mut server = Server {
            child: Some(child),
            pid,
            addr: String::new(),
            drain: Some(drain),
        };
        let line = match rx.recv_timeout(START_TIMEOUT) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("reading the server's ready line: {e}")),
            Err(_) => return Err("the server printed no ready line".into()),
        };
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected ready line {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// Peak RSS in MiB and CPU time in ms, from `/proc/<pid>/`.
    fn usage(&self) -> (f64, f64) {
        let rss = peak_rss_mib(&self.pid.to_string()).unwrap_or(0.0);
        let cpu_ms = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .ok()
            .and_then(|s| {
                // Fields after the parenthesised command name: state is
                // field 3, utime and stime are fields 14 and 15, in
                // clock ticks of 1/100 s.
                let rest = s.rsplit_once(')')?.1;
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
                Some(ticks as f64 * 10.0)
            })
            .unwrap_or(0.0);
        (rss, cpu_ms)
    }

    /// `POST /v1/shutdown` and wait for the child to exit; kill it if it
    /// does not.
    fn stop(mut self) -> Result<(), String> {
        let asked = fpx_serve::client::shutdown(&self.addr);
        let mut child = self.child.take().expect("running child");
        let deadline = Instant::now() + STOP_TIMEOUT;
        let exited = loop {
            match child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break false,
            }
        };
        if !exited {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        match (asked, exited) {
            (Ok(_), true) => Ok(()),
            (Err(e), _) => Err(format!("POST /v1/shutdown: {e}")),
            (_, false) => Err("the server did not exit after POST /v1/shutdown".into()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// The server's own counters, from `GET /v1/metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounts {
    cache_hits: u64,
    cache_misses: u64,
    rejected: u64,
    rss_mib: f64,
    cpu_ms: f64,
}

fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let at = doc.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = doc[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

struct Reply {
    ok: bool,
    cache_hit: bool,
    output: String,
    error: String,
}

/// One job over one connection: connect, send, status line, result
/// line, then read to the server's close.
fn request(addr: &str, body: &str, tr: &mut Tracer) -> Result<Reply, String> {
    let stream = tr
        .time("http.connect", "", || TcpStream::connect(addr))
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    let mut r = BufReader::new(stream);
    let code = tr
        .time("http.head", "", || -> std::io::Result<String> {
            write!(
                r.get_mut(),
                "POST /v1/jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/x-ndjson\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )?;
            let mut status = String::new();
            r.read_line(&mut status)?;
            loop {
                let mut h = String::new();
                if r.read_line(&mut h)? == 0 || h.trim_end().is_empty() {
                    break;
                }
            }
            Ok(status)
        })
        .map_err(|e| format!("{addr}: {e}"))?;
    if code.split_whitespace().nth(1) != Some("200") {
        return Err(format!("{addr}: {}", code.trim_end()));
    }
    let line = tr
        .time("serve.result", "", || -> std::io::Result<String> {
            let mut line = String::new();
            r.read_line(&mut line)?;
            r.read_to_end(&mut Vec::new())?;
            Ok(line)
        })
        .map_err(|e| format!("{addr}: {e}"))?;
    let res = tr
        .time("serve.proto", "", || proto::parse_result(line.trim_end()))
        .map_err(|e| format!("{addr}: {e}"))?;
    Ok(Reply {
        ok: res.status == "ok",
        cache_hit: res.cache_hit == Some(true),
        output: res.output.unwrap_or_default(),
        error: res.error.unwrap_or(res.status),
    })
}

struct Sample {
    ms: f64,
    hit: bool,
    ok: bool,
}

/// What one closed-loop load phase saw.
struct Load {
    samples: Vec<Sample>,
    elapsed_s: f64,
    /// First output served for each key.
    outputs: Vec<Option<String>>,
    errors: Vec<String>,
    counts: ServerCounts,
    tracer: Tracer,
}

impl Load {
    fn ms(&self, hit: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && hit.is_none_or(|h| s.hit == h))
            .map(|s| s.ms)
            .collect()
    }

    fn jobs_per_s(&self) -> f64 {
        self.ms(None).len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Start a cold server, drive it for at least `min_s` seconds and until
/// every key has been served, read its counters, and stop it.
fn load(
    ctx: &Ctx,
    server: Server,
    keys: &[JobSpec],
    min_s: f64,
    traced: bool,
    t0: Instant,
) -> Result<Load, String> {
    let lines: Vec<String> = keys.iter().map(|k| proto::encode_job(k) + "\n").collect();
    let stream = Stream::new(keys.len(), ctx.seed);
    let next = AtomicU64::new(0);
    let served: Vec<AtomicBool> = keys.iter().map(|_| AtomicBool::new(false)).collect();
    let served_n = AtomicUsize::new(0);
    let first: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; keys.len()]);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let cap = 2.0 * min_s + 10.0;
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..ctx.nproc)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = if traced {
                        Tracer::new(t0)
                    } else {
                        Tracer::disabled()
                    };
                    let mut samples = Vec::new();
                    loop {
                        let el = start.elapsed().as_secs_f64();
                        if (el >= min_s && served_n.load(Ordering::SeqCst) == keys.len())
                            || el >= cap
                        {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let k = stream.key(i);
                        tr.set_job(i);
                        let id = tr.open("job", "");
                        let t = Instant::now();
                        let reply = request(&server.addr, &lines[k], &mut tr);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        tr.close(id);
                        let verdict = reply.and_then(|r| {
                            if !r.ok {
                                return Err(format!("{}: {}", keys[k].program, r.error));
                            }
                            let mut f = first.lock().expect("first-output lock");
                            match &f[k] {
                                Some(o) if *o != r.output => Err(format!(
                                    "{} {}: response differs from the first one served",
                                    keys[k].program,
                                    keys[k].fingerprint()
                                )),
                                Some(_) => Ok(r.cache_hit),
                                None => {
                                    check::rendered(&keys[k], &r.output)?;
                                    f[k] = Some(r.output);
                                    if !served[k].swap(true, Ordering::SeqCst) {
                                        served_n.fetch_add(1, Ordering::SeqCst);
                                    }
                                    Ok(r.cache_hit)
                                }
                            }
                        });
                        match verdict {
                            Ok(hit) => samples.push(Sample { ms, hit, ok: true }),
                            Err(e) => {
                                samples.push(Sample {
                                    ms,
                                    hit: false,
                                    ok: false,
                                });
                                errors.lock().expect("error lock").push(e);
                            }
                        }
                    }
                    (samples, tr)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let doc =
        fpx_serve::client::metrics(&server.addr).map_err(|e| format!("GET /v1/metrics: {e}"))?;
    let (rss_mib, cpu_ms) = server.usage();
    let counts = ServerCounts {
        cache_hits: json_u64(&doc, "cache_hits").unwrap_or(0),
        cache_misses: json_u64(&doc, "cache_misses").unwrap_or(0),
        rejected: json_u64(&doc, "rejected").unwrap_or(0),
        rss_mib,
        cpu_ms,
    };
    server.stop()?;
    let mut tracer = if traced {
        Tracer::new(t0)
    } else {
        Tracer::disabled()
    };
    let mut samples = Vec::new();
    for (s, tr) in per_client {
        samples.extend(s);
        tracer.absorb(tr);
    }
    Ok(Load {
        samples,
        elapsed_s,
        outputs: first.into_inner().expect("first-output lock"),
        errors: errors.into_inner().expect("error lock"),
        counts,
        tracer,
    })
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    match run_checked(ctx, &mut rep) {
        Ok(()) => {}
        Err(e) => rep.gate("the server starts, serves and stops", false, e),
    }
    rep
}

fn run_checked(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    // Set-up: the registry and key list, then a server from spawn to
    // `listening on`. The last one set up serves the timed phase.
    let mut keys = Vec::new();
    let mut server = None;
    let mut times = Vec::new();
    for _ in 0..crate::SETUPS {
        if let Some(old) = server.take() {
            Server::stop(old)?;
        }
        let t = Instant::now();
        keys = jobs::serve_keys(&jobs::census());
        server = Some(Server::spawn(ctx)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&times).unwrap_or(0.0);
    let server = server.expect("spawned server");
    rep.info.push(format!(
        "{} keys over {}; server {} (pid {})",
        keys.len(),
        keys.iter()
            .step_by(jobs::SERVE_CONFIGS)
            .map(|k| k.program.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        server.addr,
        server.pid
    ));
    let t0 = Instant::now();
    let plain = load(ctx, server, &keys, ctx.seconds, false, t0)?;
    gates(rep, &keys, &plain, "untraced");
    rep.digest = digest(&keys, &plain.outputs);

    if !ctx.trace {
        rep.attempted = plain.samples.len() as u64;
        rep.failed = plain.samples.iter().filter(|s| !s.ok).count() as u64;
        rep.metric("setup_s", setup_s, "s");
        rep.metric("jobs_per_s", plain.jobs_per_s(), "jobs/s");
        rep.p50("job_p50_ms", &plain.ms(None), "ms");
        rep.tail("job_tail_ms", &plain.ms(None), "ms");
        rep.p50("hit_p50_ms", &plain.ms(Some(true)), "ms");
        rep.tail("hit_tail_ms", &plain.ms(Some(true)), "ms");
        rep.p50("miss_p50_ms", &plain.ms(Some(false)), "ms");
        rep.tail("miss_tail_ms", &plain.ms(Some(false)), "ms");
        rep.metric("peak_rss_mb", plain.counts.rss_mib, "MiB");
        let xs: Vec<f64> = plain
            .outputs
            .iter()
            .flatten()
            .filter_map(|o| slowdown(o))
            .collect();
        rep.metric(
            "modeled_slowdown_geomean",
            stats::geomean(&xs).unwrap_or(0.0),
            "x",
        );
        return Ok(());
    }

    // The traced phase: a fresh cold server, the same stream, client
    // spans around connect, status line and result line.
    let traced = load(ctx, Server::spawn(ctx)?, &keys, ctx.seconds, true, t0)?;
    gates(rep, &keys, &traced, "traced");
    rep.attempted = (plain.samples.len() + traced.samples.len()) as u64;
    rep.failed = plain
        .samples
        .iter()
        .chain(&traced.samples)
        .filter(|s| !s.ok)
        .count() as u64;
    let d = digest(&keys, &traced.outputs);
    rep.gate(
        "traced phase serves the untraced bytes",
        d == rep.digest,
        format!("{d:016x} vs {:016x}", rep.digest),
    );

    // In-process timings of the calls a served job makes.
    let rc = RunnerConfig::default();
    let mut inproc = Tracer::new(t0);
    let mut counts = vec![live::Counts::default(); keys.len()];
    let mut one_shot_differs = 0;
    for (i, spec) in keys.iter().enumerate() {
        inproc.set_job(1 << 40 | i as u64);
        let (r, c) = live::traced(spec, &rc, &mut inproc)?;
        counts[i] = c;
        if plain.outputs[i].as_deref() != Some(r.text.as_str()) {
            one_shot_differs += 1;
        }
    }
    rep.gate(
        "served bytes equal one-shot bytes",
        one_shot_differs == 0,
        format!("{one_shot_differs} of {} keys differ", keys.len()),
    );
    let live_layers = Layers::from_spans(inproc.spans());
    sweep::live_layers(rep, &live_layers, &counts, &keys, keys.len() as f64);
    rep.metric(
        "telemetry.enabled_ratio",
        sweep::telemetry_ratio(&keys, &rc),
        "ratio",
    );
    sweep::idle_trace_layers(rep);

    let hit_p50_ms = stats::median(&plain.ms(Some(true))).unwrap_or(0.0);
    serve_layers(ctx, rep, &keys, &traced, hit_p50_ms)?;
    let client = Layers::from_spans(traced.tracer.spans());
    rep.metric("coverage_ratio", client.coverage(), "ratio");
    rep.metric(
        "tracing_overhead_ratio",
        traced.jobs_per_s() / plain.jobs_per_s().max(1e-9),
        "ratio",
    );
    let mut all = traced.tracer;
    all.absorb(inproc);
    ctx.write_spans("serve", &all);
    Ok(())
}

/// Seconds of load the serve-layer probe drives, after every key has
/// been served once.
const PROBE_SECONDS: f64 = 5.0;

/// The serve-layer metrics measured against a short traced load on a
/// cold server: what `replay`'s traced run reports for the `serve`,
/// `cache` and `http` layers, which no end-to-end workload exercises.
pub fn probe_layers(ctx: &Ctx, rep: &mut Report) {
    if let Err(e) = probe(ctx, rep) {
        rep.gate("serve probe: the server starts, serves and stops", false, e);
    }
}

fn probe(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let keys = jobs::serve_keys(&jobs::census());
    let l = load(
        ctx,
        Server::spawn(ctx)?,
        &keys,
        PROBE_SECONDS,
        true,
        Instant::now(),
    )?;
    gates(rep, &keys, &l, "serve probe");
    let hit_p50_ms = stats::median(&l.ms(Some(true))).unwrap_or(0.0);
    serve_layers(ctx, rep, &keys, &l, hit_p50_ms)
}

/// The `cache`, `serve` and `http` layer metrics: in-process cache and
/// engine timings on `keys` and the payloads `l` served, the server's
/// own counters, and the client spans of the traced load `l`.
fn serve_layers(
    ctx: &Ctx,
    rep: &mut Report,
    keys: &[JobSpec],
    l: &Load,
    hit_p50_ms: f64,
) -> Result<(), String> {
    let (lookup_us, insert_us) = cache_us(keys, &l.outputs, &Stream::new(keys.len(), ctx.seed))?;
    rep.metric("cache.lookup_us", lookup_us, "us");
    rep.metric("cache.insert_us", insert_us, "us");
    let engine_hit_us = engine_hit_us(ctx, keys, &l.outputs)?;
    rep.metric("serve.engine_hit_us", engine_hit_us, "us");
    rep.metric("serve.metas_ms", metas_ms(keys)?, "ms");
    let c = l.counts;
    let jobs = (c.cache_hits + c.cache_misses).max(1) as f64;
    rep.metric("serve.cache_hit_ratio", c.cache_hits as f64 / jobs, "ratio");
    rep.metric("serve.rejected", c.rejected as f64, "count");
    rep.metric("serve.cpu_ms_per_job", c.cpu_ms / jobs, "ms");
    let client = Layers::from_spans(l.tracer.spans());
    let requests = l.samples.len().max(1) as f64;
    rep.metric(
        "http.connect_ms",
        client.self_s("http.connect") * 1e3 / requests,
        "ms",
    );
    rep.metric(
        "http.head_ms",
        client.self_s("http.head") * 1e3 / requests,
        "ms",
    );
    rep.metric("http.overhead_us", hit_p50_ms * 1e3 - engine_hit_us, "us");
    Ok(())
}

fn gates(rep: &mut Report, keys: &[JobSpec], l: &Load, label: &str) {
    let served = l.outputs.iter().filter(|o| o.is_some()).count();
    rep.gate(
        format!("{label}: every key served"),
        served == keys.len(),
        format!("{served} of {} keys", keys.len()),
    );
    rep.gate(
        format!("{label}: responses correct and byte-identical per key"),
        l.errors.is_empty(),
        l.errors.first().cloned().unwrap_or_default(),
    );
    rep.gate(
        format!("{label}: no job rejected"),
        l.counts.rejected == 0,
        format!("{} rejected", l.counts.rejected),
    );
    rep.info.push(format!(
        "{label}: {} requests in {:.2} s, server cache {} hits / {} misses, peak RSS {:.1} MiB, CPU {:.0} ms",
        l.samples.len(),
        l.elapsed_s,
        l.counts.cache_hits,
        l.counts.cache_misses,
        l.counts.rss_mib,
        l.counts.cpu_ms
    ));
}

/// Digest of every key's served output, in key order.
fn digest(keys: &[JobSpec], outputs: &[Option<String>]) -> u64 {
    let mut d = Digest::default();
    for (k, o) in keys.iter().zip(outputs) {
        d.bytes(k.program.as_bytes())
            .bytes(k.fingerprint().as_bytes())
            .bytes(o.as_deref().unwrap_or("").as_bytes());
    }
    d.0
}

/// Tool over baseline cycles from a rendered report's first line.
fn slowdown(text: &str) -> Option<f64> {
    let first = text.lines().next()?;
    let num_before = |marker: &str| -> Option<f64> {
        let end = first.find(marker)?;
        first[..end].rsplit(' ').next()?.parse().ok()
    };
    let base = num_before(" cycles, instrumented")?;
    let tool = num_before(" cycles (slowdown")?;
    Some(tool / base.max(1.0))
}

fn cache_key(spec: &JobSpec) -> Result<CacheKey, String> {
    Ok(CacheKey {
        kernels: job::kernel_metas(&spec.program, spec.arch, spec.fast_math)
            .map_err(|e| e.to_string())?,
        config: spec.fingerprint(),
    })
}

/// Mean `ResultCache::insert` and `lookup` time on the workload's own
/// keys and served payloads; lookups follow the request stream.
fn cache_us(
    keys: &[JobSpec],
    outputs: &[Option<String>],
    stream: &Stream,
) -> Result<(f64, f64), String> {
    let cks: Vec<CacheKey> = keys.iter().map(cache_key).collect::<Result<_, _>>()?;
    let payloads: Vec<Vec<u8>> = outputs
        .iter()
        .map(|o| o.clone().unwrap_or_default().into_bytes())
        .collect();
    let mut insert_s = 0.0;
    let cache = ResultCache::in_memory();
    for _ in 0..CACHE_ROUNDS {
        cache.clear();
        let t = Instant::now();
        for (k, p) in cks.iter().zip(&payloads) {
            cache
                .insert(k.clone(), p.clone())
                .map_err(|e| e.to_string())?;
        }
        insert_s += t.elapsed().as_secs_f64();
    }
    let n = CACHE_ROUNDS * keys.len();
    let t = Instant::now();
    for i in 0..n as u64 {
        let hit = cache
            .lookup(&cks[stream.key(i)])
            .map_err(|e| e.to_string())?;
        std::hint::black_box(hit);
    }
    let lookup_s = t.elapsed().as_secs_f64();
    Ok((lookup_s * 1e6 / n as f64, insert_s * 1e6 / n as f64))
}

/// Median warm hit through an in-process `Engine::submit`, no socket:
/// the engine's cache holds every key's served payload and its kernel
/// table memo is warm.
fn engine_hit_us(ctx: &Ctx, keys: &[JobSpec], outputs: &[Option<String>]) -> Result<f64, String> {
    let engine = Engine::start(EngineConfig {
        workers: ctx.nproc,
        queue_cap: 64,
        threads_per_job: 1,
        obs: Obs::with_sms(8),
        prof: Prof::enabled(),
        cache: ResultCache::in_memory(),
    });
    for (k, o) in keys.iter().zip(outputs) {
        let payload = o.clone().unwrap_or_default().into_bytes();
        engine
            .cache()
            .insert(cache_key(k)?, payload)
            .map_err(|e| e.to_string())?;
    }
    let stream = Stream::new(keys.len(), ctx.seed);
    let mut us = Vec::with_capacity(ENGINE_HITS);
    for i in 0..(keys.len() + ENGINE_HITS) as u64 {
        let k = if (i as usize) < keys.len() {
            i as usize
        } else {
            stream.key(i)
        };
        let (tx, rx) = mpsc::channel();
        let t = Instant::now();
        engine
            .submit(i, keys[k].clone(), tx)
            .map_err(|e| e.to_string())?;
        let r = rx.recv().map_err(|e| e.to_string())?;
        let took = t.elapsed().as_secs_f64() * 1e6;
        match r.outcome {
            Outcome::Done {
                cache_hit: true, ..
            } => {}
            other => return Err(format!("in-process engine: expected a hit, got {other:?}")),
        }
        if i as usize >= keys.len() {
            us.push(took);
        }
    }
    engine.shutdown();
    Ok(stats::median(&us).unwrap_or(0.0))
}

/// Mean `job::kernel_metas` time per program of the key space.
fn metas_ms(keys: &[JobSpec]) -> Result<f64, String> {
    let mut programs: Vec<&str> = keys.iter().map(|k| k.program.as_str()).collect();
    programs.dedup();
    let rounds = 5;
    let t = Instant::now();
    for _ in 0..rounds {
        for p in &programs {
            let m = job::kernel_metas(p, Arch::Ampere, false).map_err(|e| e.to_string())?;
            std::hint::black_box(m);
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e3 / (rounds * programs.len()) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_counters_and_slowdowns() {
        let doc = "{\"jobs_accepted\":5,\"cache_hits\":41,\"cache_misses\":7,\"rejected\":0}";
        assert_eq!(json_u64(doc, "cache_hits"), Some(41));
        assert_eq!(json_u64(doc, "rejected"), Some(0));
        assert_eq!(json_u64(doc, "absent"), None);
        let text = "LU: baseline 200 cycles, instrumented 500 cycles (slowdown 2.50x)\nrow: []\n";
        assert_eq!(slowdown(text), Some(2.5));
        assert_eq!(slowdown("garbage"), None);
    }
}
