//! The `serve-*` workloads: `perilsd` cold-booted from a `.psa` archive
//! and driven over its wire API by the load generator.

use crate::gen::{self, PhaseResult, PhaseSpec, Planned, ReloadPlan, Saturate, Tag};
use crate::sampler::Sampler;
use crate::stats;
use crate::trace::Tracer;
use crate::{Context, Outcome};
use perils_core::hijack::min_cut_flattened_view;
use perils_core::lint::{LintCtx, RuleRegistry};
use perils_core::tcb::TcbTally;
use perils_core::universe::{ServerId, ZoneId};
use perils_dns::name::DnsName;
use perils_service::query::{name_response, zone_response};
use perils_service::{WorldSnapshot, WorldSpec};
use perils_survey::SnapshotBackend;
use perils_util::rng::Rng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// World the serve workloads answer from: `scaled_params(WORLD_SEED,
/// WORLD_NAMES)`. The workload seed drives the traffic, so every run
/// boots the same cached archive.
const WORLD_SEED: u64 = 20040722;
const WORLD_NAMES: usize = 100_000;
/// Daemon worker threads and load connections.
const THREADS: usize = 2;
/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 9;
/// The two open-loop rates of traced runs: per-layer latency, and the
/// first steps of the `max_rps` ladder.
const LIGHT_RATE: f64 = 1000.0;
const LOADED_RATE: f64 = 2000.0;
/// `max_rps` ladder above the loaded rate, and the latency limit a step
/// must meet.
const LADDER: [f64; 7] = [2500.0, 3000.0, 3500.0, 4000.0, 4500.0, 5000.0, 6000.0];
const P99_LIMIT_MS: f64 = 25.0;
/// Requests each connection keeps outstanding in the capacity phase:
/// enough to keep a worker busy, few enough that answers stay well
/// inside the latency limit; and a rate no two cores reach, to size
/// a closed-loop phase's request plan.
const SATURATE_WINDOW: usize = 24;
const SATURATE_PLAN_RATE: f64 = 20_000.0;
/// Requests each connection keeps outstanding in the latency phase, so
/// each answer's latency is a single request's round trip.
const LATENCY_WINDOW: usize = 1;
/// Phase rounds per run.
const ROUNDS: usize = 5;
/// Reloads per round with no other traffic, timed for `refresh_s`.
const QUIET_RELOADS: usize = 4;
/// How long after a reload completes its backlog counts as the
/// reload's.
const RELOAD_SETTLE_MS: u64 = 100;
/// Keep one response body in this many for the answer check.
const CHECK_EVERY: usize = 7;
/// Requests replayed in-process for the per-layer breakdown.
const REPLAY: usize = 3000;

/// One serving configuration.
pub struct ServeWorkload {
    /// `None` serves from the heap backend.
    pub page_cache_mb: Option<u64>,
    pub zipf: bool,
    /// Share of requests that are `/zone/<zone of a drawn name>`.
    pub zone_share: f64,
    /// Reload every this many seconds under traffic: in the capacity
    /// phases, and in the open-loop phases of traced runs.
    pub reload_every_s: Option<f64>,
}

impl ServeWorkload {
    fn backend(&self) -> SnapshotBackend {
        match self.page_cache_mb {
            Some(mb) => SnapshotBackend::paged(mb * 1024 * 1024),
            None => SnapshotBackend::Heap,
        }
    }
}

pub const UNIFORM_PAGED: ServeWorkload = ServeWorkload {
    page_cache_mb: Some(4),
    zipf: false,
    zone_share: 0.0,
    reload_every_s: None,
};

pub const ZIPF_RELOAD: ServeWorkload = ServeWorkload {
    page_cache_mb: None,
    zipf: true,
    zone_share: 0.1,
    reload_every_s: Some(1.0),
};

/// Builds (once per build of this benchmark) and returns the world
/// archive. The file name carries a hash of the running executable,
/// which links the code that generates the world and writes the
/// archive: a change to either builds a new fixture instead of serving
/// one an older build wrote. Fixtures of other builds are removed.
pub fn fixture(ctx: &Context) -> Result<PathBuf, String> {
    let build = executable_hash()?;
    let stem = format!("world-{WORLD_SEED}-{WORLD_NAMES}-");
    let path = ctx.work_dir.join(format!("{stem}{build:016x}.psa"));
    if path.exists() {
        return Ok(path);
    }
    if let Ok(entries) = std::fs::read_dir(&ctx.work_dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&stem) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    eprintln!("perfbench: building the {WORLD_NAMES}-name archive fixture (cached per build) ...");
    let params = perils_bench::scaled_params(WORLD_SEED, WORLD_NAMES);
    let snap = WorldSnapshot::build(&WorldSpec::Synthetic(params), 1, THREADS, false);
    let tmp = path.with_extension("psa.tmp");
    snap.save_archive(&tmp)
        .map_err(|e| format!("saving the fixture: {e}"))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("placing the fixture: {e}"))?;
    Ok(path)
}

/// A hash of the running executable's bytes.
fn executable_hash() -> Result<u64, String> {
    use std::hash::Hasher;
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut file = std::fs::File::open(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if n == 0 {
            return Ok(hasher.finish());
        }
        hasher.write(&buf[..n]);
    }
}

/// The request tables a run draws from.
struct Tables {
    names: Vec<String>,
    zones: Vec<String>,
}

/// The two requests kinds the mix draws: `/name/<n>` or the zone of a
/// drawn name.
fn plan_requests(
    w: &ServeWorkload,
    tables: &Tables,
    sampler: &Sampler,
    rng: &mut Rng,
    n: usize,
) -> Vec<Planned> {
    (0..n)
        .map(|_| {
            let i = sampler.draw(rng);
            if w.zone_share > 0.0 && rng.chance(w.zone_share) {
                Planned::get(Tag::Zone(i as u32), &format!("/zone/{}", tables.zones[i]))
            } else {
                Planned::get(Tag::Name(i as u32), &format!("/name/{}", tables.names[i]))
            }
        })
        .collect()
}

/// A running `perilsd`, killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(ctx: &Context, w: &ServeWorkload, archive: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(&ctx.perilsd);
        cmd.arg("--snapshot")
            .arg(archive)
            .args(["--threads", &THREADS.to_string()])
            .args(["--addr", "127.0.0.1:0", "--no-figures"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match w.page_cache_mb {
            Some(mb) => cmd.args([
                "--snapshot-backend",
                "paged",
                "--page-cache-mb",
                &mb.to_string(),
            ]),
            None => cmd.args(["--snapshot-backend", "heap"]),
        };
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", ctx.perilsd.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("perilsd did not report its address (got {line:?})"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then waits for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = http(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("perilsd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("perilsd did not drain within 30 s".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One blocking request on a fresh connection (control plane and boot
/// probe only; the load goes through [`gen`]).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.0\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    match gen::parse_head(&raw) {
        Ok(Some((status, head, len))) if raw.len() >= head + len => Ok((
            status,
            String::from_utf8_lossy(&raw[head..head + len]).into_owned(),
        )),
        _ => Err(format!("malformed response to {method} {path}")),
    }
}

/// The serving epoch, from `/healthz`.
fn current_epoch(addr: SocketAddr) -> Result<u64, String> {
    let (status, body) = http(addr, "GET", "/healthz", "")?;
    match gen::json_u64(&body, "epoch") {
        Some(epoch) if status == 200 => Ok(epoch),
        _ => Err(format!("/healthz answered {status}: {body}")),
    }
}

/// One snapshot-served reload with no other traffic: seconds from the
/// `POST /reload` until `/healthz` shows the new epoch.
fn quiet_reload(addr: SocketAddr, body: &str) -> Result<f64, String> {
    let before = current_epoch(addr)?;
    let t0 = Instant::now();
    let (status, answer) = http(addr, "POST", "/reload", body)?;
    if status != 202 {
        return Err(format!("POST /reload answered {status}: {answer}"));
    }
    while current_epoch(addr)? <= before {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("reload did not complete within 30 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Scrapes `/metrics` into `series -> value` (labels kept in the key).
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = http(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| v.parse::<f64>().ok().map(|v| (k.to_string(), v)))
        .collect())
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Latency percentile (ms) from the histogram delta between two scrapes:
/// the upper bound of the bucket the percentile falls in.
fn histogram_ms(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, q: f64) -> f64 {
    let prefix = "perilsd_request_duration_seconds_bucket{le=\"";
    let mut buckets: Vec<(f64, f64)> = after
        .keys()
        .filter_map(|k| k.strip_prefix(prefix).map(|rest| (k, rest)))
        .filter_map(|(k, rest)| {
            let le = rest.trim_end_matches("\"}");
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, delta(before, after, k)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bounds are numbers"));
    let total = buckets.last().map_or(0.0, |b| b.1);
    buckets
        .iter()
        .find(|(_, cum)| *cum >= total * q / 100.0)
        .map_or(0.0, |(bound, _)| bound.min(1e3) * 1e3)
}

/// VmHWM of a process, MiB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

/// Latency summary of the `/name` samples of one phase.
struct Latency {
    p50_ms: f64,
    p99_ms: Option<f64>,
    late_p99_ms: f64,
    late_max_ms: f64,
    /// Lateness p99 over the phases' second halves minus that over their
    /// first halves (ms): growth means the generator is falling behind.
    late_growth_ms: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `/name` latencies (ms) of `phases` outside reloads, sorted.
fn name_latencies<'a>(phases: impl IntoIterator<Item = &'a PhaseResult>) -> Vec<f64> {
    let mut v: Vec<f64> = phases
        .into_iter()
        .flat_map(|p| p.samples.iter().filter(move |s| is_steady_name(p, s)))
        .map(|s| ms(s.latency_ns))
        .collect();
    stats::sort(&mut v);
    v
}

/// A `/name` answer not due while a reload was in flight.
fn is_steady_name(phase: &PhaseResult, s: &gen::Sample) -> bool {
    matches!(s.tag, Tag::Name(_)) && !during_reload(phase, s.due_ns)
}

/// Latency and lateness of `phases`, leaving out requests due while a
/// reload was in flight (those are `gen.name_p99_ms.reload`'s).
fn latency(phases: &[PhaseResult]) -> Latency {
    let lat = name_latencies(phases);
    // Lateness (ms, sorted) of each phase's first and second halves,
    // pooled over phases, so one host hiccup in one phase does not read
    // as growth.
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for p in phases {
        let half = p.samples.len() / 2;
        for (i, s) in p.samples.iter().enumerate() {
            if !during_reload(p, s.due_ns) {
                let part = if i < half { &mut first } else { &mut second };
                part.push(ms(s.late_ns));
            }
        }
    }
    let mut all: Vec<f64> = first.iter().chain(&second).copied().collect();
    stats::sort(&mut all);
    stats::sort(&mut first);
    stats::sort(&mut second);
    let p99 = |v: &[f64]| stats::percentile(v, 99.0).unwrap_or(0.0);
    Latency {
        p50_ms: stats::median(&lat).unwrap_or(f64::INFINITY),
        p99_ms: stats::supported_percentile(&lat, 99.0),
        late_p99_ms: p99(&all),
        late_max_ms: all.last().copied().unwrap_or(0.0),
        late_growth_ms: p99(&second) - p99(&first),
    }
}

/// Whether a rate met the limit: every request sent and answered with a
/// 200, p99 at most [`P99_LIMIT_MS`], and the generator's lateness not
/// growing by more than a millisecond from the phases' first halves to
/// their second halves.
fn step_passes(phases: &[PhaseResult]) -> bool {
    let l = latency(phases);
    phases
        .iter()
        .all(|p| !p.gave_up() && p.errors.is_empty() && p.samples.iter().all(|s| s.status == 200))
        && l.p99_ms.is_some_and(|p| p <= P99_LIMIT_MS)
        && l.late_growth_ms <= 1.0
}

/// Failed requests of a phase: non-2xx answers plus requests lost to a
/// transport error.
fn failures(phase: &PhaseResult) -> usize {
    phase
        .samples
        .iter()
        .filter(|s| !(200..300).contains(&s.status))
        .count()
        + phase.lost
}

/// Strips the leading `{"epoch":N,` stamp, the only part of an answer
/// that depends on the serving generation.
fn without_epoch(body: &str) -> &str {
    body.strip_prefix("{\"epoch\":")
        .and_then(|rest| rest.find(',').map(|i| &rest[i + 1..]))
        .unwrap_or(body)
}

/// Compares every kept wire body with the in-process answer; returns
/// the number of mismatches.
fn check_answers(oracle: &WorldSnapshot, tables: &Tables, phase: &PhaseResult) -> usize {
    let rules = RuleRegistry::builtin();
    let mut ws = oracle.index.workspace();
    let mut bad = 0;
    for s in phase.samples.iter().filter(|s| s.status == 200) {
        let Some(body) = &s.body else { continue };
        let expected = match s.tag {
            Tag::Name(i) => name_response(oracle, &rules, &mut ws, &tables.names[i as usize]),
            Tag::Zone(i) => zone_response(oracle, &rules, &tables.zones[i as usize]),
            _ => continue,
        };
        if without_epoch(&expected.body) != without_epoch(body) {
            if bad == 0 {
                eprintln!("perfbench: answer mismatch for {:?}", s.tag);
            }
            bad += 1;
        }
    }
    bad
}

/// Whether a request due at `due_ns` overlapped a reload: from its post
/// until [`RELOAD_SETTLE_MS`] after the new epoch showed. Those answers
/// are `gen.name_p99_ms.reload`'s.
fn during_reload(phase: &PhaseResult, due_ns: u64) -> bool {
    phase
        .reloads
        .iter()
        .any(|r| (r.posted_ns..=r.seen_ns + RELOAD_SETTLE_MS * 1_000_000).contains(&due_ns))
}

pub fn run(ctx: &Context, w: &ServeWorkload) -> Result<Outcome, String> {
    let archive = fixture(ctx)?;
    let archive_bytes = std::fs::metadata(&archive)
        .map_err(|e| e.to_string())?
        .len();
    let oracle = WorldSnapshot::load_archive(&archive, 1, SnapshotBackend::Heap)
        .map_err(|e| format!("loading the fixture: {e}"))?;
    let tables = Tables {
        names: oracle.names.iter().map(|n| n.name.to_string()).collect(),
        zones: oracle
            .names
            .iter()
            .map(|n| {
                let z = oracle
                    .universe
                    .zone_of(&n.name)
                    .expect("every surveyed name has a zone");
                oracle.universe.zone(z).origin.to_string()
            })
            .collect(),
    };
    // Popularity is a property of the world, so the Zipf ranking comes
    // from the world seed; the workload seed draws the requests.
    let mut rng = Rng::new(ctx.seed);
    let sampler = if w.zipf {
        Sampler::zipf(tables.names.len(), 1.0, &mut Rng::new(WORLD_SEED))
    } else {
        Sampler::uniform(tables.names.len())
    };

    let secs = ctx.seconds as f64;
    // The gated phases are interleaved in rounds over the whole run, so
    // a host stall of a few seconds spoils one round's windows, not a
    // metric.
    let round_s = 0.85 * secs / ROUNDS as f64;
    let capacity_s = 0.47 * round_s;
    // The rest of the round, less the quiet reloads.
    let latency_s = 0.4 * round_s;
    // Traced runs only: the open-loop phases and the ladder steps.
    let light_s = 0.064 * secs;
    let loaded_s = 0.032 * secs;
    let step_s = 0.03 * secs;
    let reload_body = format!(
        "{{\"snapshot\":\"{}\"}}",
        archive
            .display()
            .to_string()
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
    );
    let reload_plan = |duration_s: f64, epoch_before: u64, every: f64| ReloadPlan {
        body: reload_body.clone(),
        at_ns: (0..)
            .map(|k| ((k as f64 + 0.5) * every * 1e9) as u64)
            .take_while(|&t| (t as f64) < (duration_s - 0.2 * every) * 1e9)
            .collect(),
        epoch_before,
        poll: Duration::from_millis(2),
    };
    let phase = |rate: f64, duration_s: f64, rng: &mut Rng| PhaseSpec {
        rate,
        requests: plan_requests(w, &tables, &sampler, rng, (rate * duration_s) as usize),
        connections: THREADS,
        keep_body_every: CHECK_EVERY,
        give_up_after: None,
        reloads: None,
        saturate: None,
    };
    // Closed loop: each connection keeps `window` requests outstanding.
    let closed = |window: usize, duration_s: f64, rng: &mut Rng| PhaseSpec {
        saturate: Some(Saturate {
            window,
            duration: Duration::from_secs_f64(duration_s),
        }),
        ..phase(SATURATE_PLAN_RATE, duration_s, rng)
    };

    // Set-up: boot BOOTS times; the last daemon takes the load.
    let mut boots = Vec::new();
    let mut daemon = None;
    for b in 0..BOOTS {
        let t0 = Instant::now();
        let d = Daemon::start(ctx, w, &archive)?;
        let probe = format!("/name/{}", tables.names[0]);
        let (status, _) = http(d.addr, "GET", &probe, "")?;
        if status != 200 {
            return Err(format!("first /name answered {status}"));
        }
        boots.push(t0.elapsed().as_secs_f64());
        if b + 1 < BOOTS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one boot");
    let m0 = scrape(daemon.addr)?;

    let run_phase = |mut spec: PhaseSpec, reload_every: Option<f64>, duration_s: f64| {
        if let Some(every) = reload_every {
            let epoch = current_epoch(daemon.addr)?;
            spec.reloads = Some(reload_plan(duration_s, epoch, every));
        }
        Ok::<_, String>(gen::run_phase(daemon.addr, &spec))
    };
    let (mut capacity, mut single) = (vec![], vec![]);
    let mut quiet_reloads = Vec::new();
    // perilsd's CPU seconds over the capacity phases.
    let mut capacity_cpu_s = 0.0;
    for _ in 0..ROUNDS {
        // The zipf workload's reloads under traffic land in the capacity
        // phase, so a cache they invalidate must refill at full load.
        let spec = closed(SATURATE_WINDOW, capacity_s, &mut rng);
        let cpu_before = crate::cpu_seconds(daemon.pid())?;
        capacity.push(run_phase(spec, w.reload_every_s, capacity_s)?);
        capacity_cpu_s += crate::cpu_seconds(daemon.pid())? - cpu_before;
        let spec = closed(LATENCY_WINDOW, latency_s, &mut rng);
        single.push(run_phase(spec, None, latency_s)?);
        for _ in 0..QUIET_RELOADS {
            quiet_reloads.push(quiet_reload(daemon.addr, &reload_body)?);
        }
    }
    let m1 = scrape(daemon.addr)?;

    // Traced runs only: the open-loop rates, then the max_rps ladder.
    // The open-loop phases are its first steps; it stops at the first
    // step that misses the limit.
    let (mut light, mut loaded, mut ladder) = (vec![], vec![], vec![]);
    let mut max_rps = 0.0;
    let mut m2 = m1.clone();
    if ctx.trace {
        for _ in 0..ROUNDS {
            let spec = phase(LIGHT_RATE, light_s, &mut rng);
            light.push(run_phase(spec, w.reload_every_s, light_s)?);
            let spec = phase(LOADED_RATE, loaded_s, &mut rng);
            loaded.push(run_phase(spec, w.reload_every_s, loaded_s)?);
        }
        m2 = scrape(daemon.addr)?;
        if step_passes(&light) {
            max_rps = LIGHT_RATE;
            if step_passes(&loaded) {
                max_rps = LOADED_RATE;
            }
        }
        if max_rps == LOADED_RATE {
            for &rate in &LADDER {
                let mut spec = phase(rate, step_s, &mut rng);
                spec.give_up_after = Some(Duration::from_millis(250));
                let step = run_phase(spec, None, step_s)?;
                let pass = step_passes(std::slice::from_ref(&step));
                ladder.push(step);
                if !pass {
                    break;
                }
                max_rps = rate;
            }
        }
    }
    let m3 = scrape(daemon.addr)?;
    let rss = peak_rss_mb(daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    daemon.stop()?;

    let phases: Vec<&PhaseResult> = [&capacity, &single, &light, &loaded, &ladder]
        .into_iter()
        .flatten()
        .collect();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut mismatches = 0usize;
    for p in &phases {
        for e in &p.errors {
            eprintln!("perfbench: transport error: {e}");
        }
        attempted += p.samples.len() + p.lost;
        failed += failures(p);
        mismatches += check_answers(&oracle, &tables, p);
    }
    failed += mismatches;

    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median_of(boots).expect("boots ran"));
    m.insert("peak_rss_mb", rss);
    m.insert(
        "refresh_s",
        stats::calm_time(quiet_reloads).ok_or("no reload completed")?,
    );
    // Answers per CPU second of the daemon at full load: how fast the
    // program turns CPU into answers, whatever share of the two cores
    // the load generator's threads leave it. (Answers per wall second
    // swing by a fifth from one capacity phase to the next with how the
    // scheduler places the four busy threads; per CPU second they hold
    // within a few percent.) Reloads under load count in the CPU.
    let answers = capacity.iter().map(|p| p.samples.len()).sum::<usize>();
    if capacity_cpu_s <= 0.0 {
        return Err("perilsd used no CPU in the capacity phases".to_string());
    }
    m.insert("answers_per_cpu_s", answers as f64 / capacity_cpu_s);
    // One request outstanding per connection: each answer is a single
    // round trip through a worker kept nearly busy, so its latency is
    // one request's transport, queueing and handler time, not the
    // backlog of a pipeline.
    m.insert(
        "answer_p50_ms",
        stats::median(&name_latencies(&single)).ok_or("no latency-phase answer")?,
    );

    if ctx.trace {
        let l1 = latency(&light);
        let l2 = latency(&loaded);
        m.insert("gen.name_p50_ms.r1000", l1.p50_ms);
        m.insert("gen.name_p99_ms.r1000", l1.p99_ms.unwrap_or(0.0));
        m.insert("gen.name_p50_ms.r2000", l2.p50_ms);
        m.insert("gen.name_p99_ms.r2000", l2.p99_ms.unwrap_or(0.0));
        m.insert("gen.late_ms.p99.r1000", l1.late_p99_ms);
        m.insert("gen.late_ms.max.r1000", l1.late_max_ms);
        m.insert("gen.late_ms.p99.r2000", l2.late_p99_ms);
        m.insert("gen.late_ms.max.r2000", l2.late_max_ms);
        m.insert("gen.max_rps", max_rps);
        // Reloads under open-loop traffic: serve-zipf-reload's write path.
        let open_loop: Vec<&PhaseResult> = light.iter().chain(&loaded).collect();
        let reload_s: Vec<f64> = open_loop
            .iter()
            .flat_map(|p| p.reloads.iter())
            .map(|r| (r.seen_ns - r.posted_ns) as f64 / 1e9)
            .collect();
        if let Some(median) = stats::median_of(reload_s) {
            // Requests due while a reload was in flight.
            let mut due_in_reload: Vec<f64> = open_loop
                .iter()
                .flat_map(|p| {
                    p.samples
                        .iter()
                        .filter(|s| matches!(s.tag, Tag::Name(_)) && during_reload(p, s.due_ns))
                })
                .map(|s| ms(s.latency_ns))
                .collect();
            stats::sort(&mut due_in_reload);
            m.insert("gen.reload_s", median);
            m.insert(
                "gen.name_p99_ms.reload",
                stats::tail(&due_in_reload).map_or(0.0, |t| t.1),
            );
        }
        m.insert("gen.error_rate", failed as f64 / attempted.max(1) as f64);
        // Client latency of the open-loop phases against the daemon's
        // handler histogram over the same phases (m1 to m2).
        let client = name_latencies(open_loop.iter().copied());
        let client_ms = |q: f64| stats::percentile(&client, q).unwrap_or(0.0);
        m.insert(
            "daemon.wait_ms.p50",
            client_ms(50.0) - histogram_ms(&m1, &m2, 50.0),
        );
        m.insert(
            "daemon.wait_ms.p99",
            client_ms(99.0) - histogram_ms(&m1, &m2, 99.0),
        );
        let handled = delta(&m0, &m3, "perilsd_request_duration_seconds_count");
        m.insert("daemon.handler_count", handled);
        m.insert(
            "daemon.handler_ms.mean",
            delta(&m0, &m3, "perilsd_request_duration_seconds_sum") * 1e3 / handled.max(1.0),
        );
        m.insert(
            "daemon.queue_depth_max",
            [&m0, &m1, &m2, &m3]
                .iter()
                .map(|s| s.get("perilsd_queue_depth").copied().unwrap_or(0.0))
                .fold(0.0, f64::max),
        );
        m.insert(
            "daemon.queue_rejected",
            delta(&m0, &m3, "perilsd_queue_rejected_total"),
        );
        m.insert(
            "snapshot.load_ms",
            m0.get("perilsd_snapshot_archive_load_ms")
                .copied()
                .unwrap_or(0.0),
        );
        m.insert("snapshot.archive_bytes", archive_bytes as f64);
        let hits = delta(&m0, &m3, "perilsd_page_cache_hits_total");
        let misses = delta(&m0, &m3, "perilsd_page_cache_misses_total");
        m.insert("bytestore.page_hits", hits);
        m.insert("bytestore.page_misses", misses);
        m.insert(
            "bytestore.page_evictions",
            delta(&m0, &m3, "perilsd_page_cache_evictions_total"),
        );
        m.insert(
            "bytestore.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        m.insert(
            "bytestore.resident_bytes",
            m3.get("perilsd_snapshot_resident_bytes")
                .copied()
                .unwrap_or(0.0),
        );
        let requests = plan_requests(w, &tables, &sampler, &mut rng, REPLAY);
        replay(ctx, w, &archive, &tables, &requests, &mut m)?;
    }
    Ok(Outcome {
        metrics: m.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        attempted: attempted as u64,
        failed: failed as u64,
        failures: if mismatches > 0 {
            vec![format!(
                "{mismatches} wire answers differ from the in-process answer"
            )]
        } else {
            Vec::new()
        },
    })
}

/// The parts of one `/name` answer, computed the way the query plane
/// computes them; returns the diagnostics count.
fn name_parts(
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: u64,
    snap: &WorldSnapshot,
    rules: &RuleRegistry,
    ws: &mut perils_core::closure::ClosureWorkspace,
    raw: &str,
) -> usize {
    let target = DnsName::from_ascii(raw)
        .expect("surveyed names parse")
        .to_lowercase();
    let view = tracer.span("closure.view", parent, id, || {
        snap.index.closure_view(&snap.universe, &target, ws)
    });
    let tally = tracer.span("tcb.tally", parent, id, || {
        TcbTally::compute(&snap.universe, &view)
    });
    let cut = tracer.span("hijack.min_cut", parent, id, || {
        min_cut_flattened_view(&snap.universe, &snap.index, &view)
    });
    std::hint::black_box((&tally, &cut));
    let mut chain: Vec<ZoneId> = view.target_chain().to_vec();
    chain.sort_by_key(|z| z.index());
    tracer.span("lint.rules", parent, id, || {
        lint(snap, rules, &chain, &[], std::slice::from_ref(&target))
    })
}

/// Every built-in rule over the given subjects; the diagnostics count.
fn lint(
    snap: &WorldSnapshot,
    rules: &RuleRegistry,
    zones: &[ZoneId],
    servers: &[ServerId],
    names: &[DnsName],
) -> usize {
    let ctx = LintCtx {
        universe: &snap.universe,
        index: &snap.index,
        facts: &snap.lint,
        zones,
        servers,
        names,
    };
    rules.iter().map(|r| r.check(&ctx).len()).sum()
}

fn zone_parts(
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: u64,
    snap: &WorldSnapshot,
    rules: &RuleRegistry,
    raw: &str,
) -> usize {
    let origin = DnsName::from_ascii(raw)
        .expect("zone origins parse")
        .to_lowercase();
    let zone = snap.universe.zone_id(&origin).expect("zone exists");
    let mut servers: Vec<ServerId> = snap.universe.zone(zone).ns.clone();
    servers.sort_by_key(|s| s.index());
    servers.dedup();
    tracer.span("lint.rules", parent, id, || {
        lint(snap, rules, std::slice::from_ref(&zone), &servers, &[])
    })
}

/// Replays `requests` in-process on a copy of the world loaded with the
/// workload's backend, with spans around each layer call, and once more
/// without spans for the tracing overhead.
fn replay(
    ctx: &Context,
    w: &ServeWorkload,
    archive: &Path,
    tables: &Tables,
    requests: &[Planned],
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let snap = WorldSnapshot::load_archive(archive, 1, w.backend())
        .map_err(|e| format!("loading the replay copy: {e}"))?;
    let rules = RuleRegistry::builtin();
    let mut ws = snap.index.workspace();
    // One request: its parts, then the whole answer. Returns the
    // diagnostics count and the wall time.
    let mut one = |tracer: &mut Tracer, id: u64, r: &Planned| {
        let started = Instant::now();
        let req = tracer.open("request", None, id);
        let mut diagnostics = 0;
        match r.tag {
            Tag::Name(i) => {
                let raw = &tables.names[i as usize];
                diagnostics = name_parts(tracer, req, id, &snap, &rules, &mut ws, raw);
                let resp = tracer.span("query.name", req, id, || {
                    name_response(&snap, &rules, &mut ws, raw)
                });
                std::hint::black_box(resp);
            }
            Tag::Zone(i) => {
                let raw = &tables.zones[i as usize];
                diagnostics = zone_parts(tracer, req, id, &snap, &rules, raw);
                let resp = tracer.span("query.zone", req, id, || zone_response(&snap, &rules, raw));
                std::hint::black_box(resp);
            }
            Tag::Reload | Tag::Health => {}
        }
        tracer.close(req);
        (diagnostics, started.elapsed())
    };
    // A warm-up pass, then every request twice, traced and untraced,
    // alternating which goes first, so the tracing overhead is not
    // swamped by the host's drift between two long passes.
    let mut off = Tracer::new(false);
    for (id, r) in requests.iter().enumerate() {
        one(&mut off, id as u64, r);
    }
    let mut tracer = Tracer::new(true);
    let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
    let mut diagnostics = 0usize;
    for (id, r) in requests.iter().enumerate() {
        for traced_turn in [id % 2 == 0, id % 2 != 0] {
            if traced_turn {
                let (d, t) = one(&mut tracer, id as u64, r);
                diagnostics += d;
                traced += t;
            } else {
                untraced += one(&mut off, id as u64, r).1;
            }
        }
    }
    let (traced_s, untraced_s) = (traced.as_secs_f64(), untraced.as_secs_f64());
    let t = tracer.layer_times();
    let mean_us = |name: &str| {
        t.get(name)
            .map_or(0.0, |l| l.total_ns as f64 / 1e3 / l.count.max(1) as f64)
    };
    let names = requests
        .iter()
        .filter(|r| matches!(r.tag, Tag::Name(_)))
        .count();
    // Parts of name requests only: zone requests have lint spans too.
    let part_us = ["closure.view", "tcb.tally", "hijack.min_cut"]
        .iter()
        .map(|n| mean_us(n))
        .sum::<f64>();
    let name_lint_us = name_lint_mean_us(&tracer);
    m.insert("closure.view_us", mean_us("closure.view"));
    m.insert("tcb.tally_us", mean_us("tcb.tally"));
    m.insert("hijack.min_cut_us", mean_us("hijack.min_cut"));
    m.insert("lint.rules_us", mean_us("lint.rules"));
    m.insert(
        "lint.diagnostics_per_request",
        diagnostics as f64 / requests.len().max(1) as f64,
    );
    m.insert("query.name_us", mean_us("query.name"));
    m.insert("query.zone_us", mean_us("query.zone"));
    m.insert(
        "query.encode_us",
        if names > 0 {
            mean_us("query.name") - part_us - name_lint_us
        } else {
            0.0
        },
    );
    m.insert(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    m.insert("trace.spans", tracer.spans().len() as f64);
    ctx.write_trace(&tracer)
}

/// Mean `lint.rules` span time over `/name` requests only.
fn name_lint_mean_us(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let name_requests: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "query.name")
        .map(|s| s.request)
        .collect();
    let (sum, n) = spans
        .iter()
        .filter(|s| s.name == "lint.rules" && name_requests.contains(&s.request))
        .fold((0u64, 0u64), |(sum, n), s| {
            (sum + (s.end_ns - s.start_ns), n + 1)
        });
    sum as f64 / 1e3 / n.max(1) as f64
}
