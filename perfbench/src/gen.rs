//! Open-loop HTTP load generator over a few pipelined keep-alive
//! connections, one thread each.
//!
//! Request `i` of a phase at rate `R` is due `i / R` seconds after the
//! phase starts, whatever happened to earlier requests; its latency is
//! measured from that due time, not from when it was sent, so a stall
//! (in the daemon or in this generator) is charged to every request it
//! delays. How late each request was sent is recorded separately.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What a request asks for; indices point into the caller's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Name(u32),
    Zone(u32),
    Reload,
    Health,
}

/// One planned data-plane request.
#[derive(Debug, Clone)]
pub struct Planned {
    pub tag: Tag,
    /// The full request bytes.
    pub wire: Vec<u8>,
}

impl Planned {
    pub fn get(tag: Tag, path: &str) -> Planned {
        Planned {
            tag,
            wire: format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes(),
        }
    }

    fn post(tag: Tag, path: &str, body: &str) -> Planned {
        Planned {
            tag,
            wire: format!(
                "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
        }
    }
}

/// Nanoseconds after the phase start at which request `i` (counted
/// across all connections) is due at `rate` requests per second.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// Latency charged to a request: from when it was due to when its
/// answer arrived. A request sent late keeps its due time.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// One completed data-plane request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub tag: Tag,
    /// Due time, nanoseconds after the phase start.
    pub due_ns: u64,
    /// Due time to full response.
    pub latency_ns: u64,
    /// Due time to send.
    pub late_ns: u64,
    pub status: u16,
    /// The response body, kept for the requests chosen for checking.
    pub body: Option<String>,
}

/// One reload: when it was posted and when `/healthz` first showed the
/// new epoch (nanoseconds after the phase start).
#[derive(Debug, Clone, Copy)]
pub struct ReloadWindow {
    pub posted_ns: u64,
    pub seen_ns: u64,
}

/// Snapshot-served reloads issued on the first connection.
#[derive(Debug, Clone)]
pub struct ReloadPlan {
    /// JSON body of `POST /reload`.
    pub body: String,
    /// Due times, nanoseconds after the phase start.
    pub at_ns: Vec<u64>,
    /// Epoch serving when the phase starts.
    pub epoch_before: u64,
    /// Gap between `/healthz` polls while a reload is in flight.
    pub poll: Duration,
}

/// Phase parameters.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    pub rate: f64,
    /// Requests in due order; request `i` goes out on connection
    /// `i % connections`.
    pub requests: Vec<Planned>,
    pub connections: usize,
    /// Keep the body of every request whose index is a multiple of
    /// this (0 keeps none).
    pub keep_body_every: usize,
    /// Stop sending once the oldest unanswered request is this far past
    /// its due time (the phase has already failed its latency limit).
    pub give_up_after: Option<Duration>,
    pub reloads: Option<ReloadPlan>,
    /// Closed loop instead: each connection keeps this many requests
    /// outstanding (each due when sent) until `duration` has passed.
    pub saturate: Option<Saturate>,
}

/// Closed-loop capacity measurement.
#[derive(Debug, Clone, Copy)]
pub struct Saturate {
    pub window: usize,
    pub duration: Duration,
}

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    pub reloads: Vec<ReloadWindow>,
    /// Requests never sent because the phase gave up.
    pub unsent: usize,
    /// Transport failures (each counts every request it lost).
    pub errors: Vec<String>,
    pub lost: usize,
}

impl PhaseResult {
    pub fn gave_up(&self) -> bool {
        self.unsent > 0
    }
}

/// Runs one open-loop phase against `addr`.
pub fn run_phase(addr: SocketAddr, spec: &PhaseSpec) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(20);
    let conns = spec.connections.max(1);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let reloads = if c == 0 { spec.reloads.clone() } else { None };
                scope.spawn(move || drive(addr, spec, c, conns, start, reloads))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out = PhaseResult::default();
    for r in results {
        out.samples.extend(r.samples);
        out.reloads.extend(r.reloads);
        out.unsent += r.unsent;
        out.lost += r.lost;
        out.errors.extend(r.error);
    }
    out.samples.sort_by_key(|s| s.due_ns);
    out
}

#[derive(Default)]
struct ConnResult {
    samples: Vec<Sample>,
    reloads: Vec<ReloadWindow>,
    unsent: usize,
    lost: usize,
    error: Option<String>,
}

struct Pending {
    tag: Tag,
    due: Instant,
    late_ns: u64,
    keep_body: bool,
}

/// Drives connection `c`: requests `c, c + conns, ...` of the phase.
fn drive(
    addr: SocketAddr,
    spec: &PhaseSpec,
    c: usize,
    conns: usize,
    start: Instant,
    reloads: Option<ReloadPlan>,
) -> ConnResult {
    let mut result = ConnResult::default();
    let mine: Vec<usize> = (c..spec.requests.len()).step_by(conns).collect();
    let stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            result.error = Some(format!("connect: {e}"));
            result.lost = mine.len();
            return result;
        }
    };
    let mut conn = Conn::new(stream);
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut next = 0usize;
    let mut stopped = false;
    let last_due = match spec.saturate {
        Some(sat) => start + sat.duration,
        None => start + Duration::from_nanos(due_ns(spec.requests.len() as u64, spec.rate)),
    };
    let drain_deadline = last_due + Duration::from_secs(20);

    // Reload control state (first connection only).
    let mut epoch = reloads.as_ref().map_or(0, |r| r.epoch_before);
    let mut next_reload = 0usize;
    let mut reload_posted: Option<Instant> = None;
    let mut health_in_flight = false;
    let mut last_poll = start;

    let outcome: io::Result<()> = (|| loop {
        let now = Instant::now();
        if !stopped {
            if let (Some(limit), Some(oldest)) = (spec.give_up_after, inflight.front()) {
                if now.saturating_duration_since(oldest.due) > limit {
                    stopped = true;
                }
            }
        }
        if let Some(sat) = spec.saturate {
            stopped |= now >= start + sat.duration;
        }
        while !stopped && next < mine.len() {
            let i = mine[next];
            let due = match spec.saturate {
                Some(sat) if inflight.len() < sat.window && now >= start => now,
                Some(_) => break,
                None => start + Duration::from_nanos(due_ns(i as u64, spec.rate)),
            };
            if due > now {
                break;
            }
            conn.queue(&spec.requests[i].wire);
            inflight.push_back(Pending {
                tag: spec.requests[i].tag,
                due,
                late_ns: now.saturating_duration_since(due).as_nanos() as u64,
                keep_body: spec.keep_body_every > 0 && i.is_multiple_of(spec.keep_body_every),
            });
            next += 1;
        }
        if let Some(plan) = &reloads {
            if reload_posted.is_none() && next_reload < plan.at_ns.len() && !stopped {
                let due = start + Duration::from_nanos(plan.at_ns[next_reload]);
                if due <= now {
                    conn.queue(&Planned::post(Tag::Reload, "/reload", &plan.body).wire);
                    inflight.push_back(Pending {
                        tag: Tag::Reload,
                        due: now,
                        late_ns: 0,
                        keep_body: false,
                    });
                    reload_posted = Some(now);
                    next_reload += 1;
                }
            }
            if reload_posted.is_some()
                && !health_in_flight
                && now.saturating_duration_since(last_poll) >= plan.poll
            {
                conn.queue(&Planned::get(Tag::Health, "/healthz").wire);
                inflight.push_back(Pending {
                    tag: Tag::Health,
                    due: now,
                    late_ns: 0,
                    keep_body: true,
                });
                health_in_flight = true;
                last_poll = now;
            }
        }
        conn.flush()?;
        conn.fill()?;
        while let Some((status, body)) = conn.next_response()? {
            let done = Instant::now();
            let p = inflight
                .pop_front()
                .ok_or_else(|| io::Error::other("response without a request"))?;
            match p.tag {
                Tag::Health => {
                    health_in_flight = false;
                    if let Some(posted) = reload_posted {
                        let seen = json_u64(&body, "epoch").unwrap_or(epoch);
                        if seen > epoch {
                            epoch = seen;
                            result.reloads.push(ReloadWindow {
                                posted_ns: posted.saturating_duration_since(start).as_nanos()
                                    as u64,
                                seen_ns: done.saturating_duration_since(start).as_nanos() as u64,
                            });
                            reload_posted = None;
                        }
                    }
                }
                Tag::Reload => {
                    if status != 202 {
                        return Err(io::Error::other(format!(
                            "POST /reload answered {status}: {body}"
                        )));
                    }
                }
                tag => result.samples.push(Sample {
                    tag,
                    due_ns: p.due.saturating_duration_since(start).as_nanos() as u64,
                    latency_ns: latency_from_due(p.due, done).as_nanos() as u64,
                    late_ns: p.late_ns,
                    status,
                    body: p.keep_body.then_some(body),
                }),
            }
        }
        let sending_done = stopped || next >= mine.len();
        let reloads_done = reloads.as_ref().is_none_or(|plan| {
            stopped || (next_reload >= plan.at_ns.len() && reload_posted.is_none())
        });
        if sending_done && reloads_done && inflight.is_empty() && conn.idle() {
            return Ok(());
        }
        let now = Instant::now();
        if now > drain_deadline {
            return Err(io::Error::other(
                "responses still missing 20 s after the last due time",
            ));
        }
        let mut wake = drain_deadline;
        if !stopped && next < mine.len() {
            wake = wake.min(match spec.saturate {
                // A free slot is filled at once; otherwise the next
                // response wakes the loop, or the end of the phase does.
                Some(_) if now < start => start,
                Some(sat) if inflight.len() < sat.window => now,
                Some(sat) => start + sat.duration,
                None => start + Duration::from_nanos(due_ns(mine[next] as u64, spec.rate)),
            });
        }
        if let Some(plan) = &reloads {
            if reload_posted.is_none() && next_reload < plan.at_ns.len() && !stopped {
                wake = wake.min(start + Duration::from_nanos(plan.at_ns[next_reload]));
            }
            if reload_posted.is_some() && !health_in_flight {
                wake = wake.min(last_poll + plan.poll);
            }
        }
        conn.wait(wake.saturating_duration_since(now))?;
    })();
    result.unsent = mine.len() - next;
    if let Err(e) = outcome {
        result.lost = inflight
            .iter()
            .filter(|p| matches!(p.tag, Tag::Name(_) | Tag::Zone(_)))
            .count();
        result.error = Some(e.to_string());
    }
    result
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Reads `"key":<digits>` out of a flat JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A non-blocking connection with an output queue and a parse buffer.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::with_capacity(1 << 16),
            in_pos: 0,
        }
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn idle(&self) -> bool {
        self.out_pos == self.out.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::other("connection closed while sending")),
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 65536];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::other("connection closed by the daemon")),
                Ok(k) => self.inbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops one complete response (status, body) off the parse buffer.
    fn next_response(&mut self) -> io::Result<Option<(u16, String)>> {
        let buf = &self.inbuf[self.in_pos..];
        let Some((status, head_len, body_len)) = parse_head(buf)? else {
            if self.in_pos > 0 && self.in_pos == self.inbuf.len() {
                self.inbuf.clear();
                self.in_pos = 0;
            }
            return Ok(None);
        };
        if buf.len() < head_len + body_len {
            return Ok(None);
        }
        let body = String::from_utf8_lossy(&buf[head_len..head_len + body_len]).into_owned();
        self.in_pos += head_len + body_len;
        if self.in_pos == self.inbuf.len() {
            self.inbuf.clear();
            self.in_pos = 0;
        }
        Ok(Some((status, body)))
    }

    /// Blocks until the socket is readable (or writable, while output is
    /// queued) or `timeout` passes.
    fn wait(&self, timeout: Duration) -> io::Result<()> {
        poll_socket(self.stream.as_raw_fd(), !self.idle(), timeout)
    }
}

/// Parses a response head: `(status, head length, Content-Length)`, or
/// `None` while the head is incomplete.
pub fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| io::Error::other("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line in {head:?}")))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| io::Error::other("response without Content-Length"))?;
    Ok(Some((status, end + 4, length)))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits for `fd` to become readable (or writable when `write` is set)
/// with nanosecond timeout resolution; `std` offers no readiness wait
/// finer than the millisecond socket timeouts.
fn poll_socket(fd: i32, write: bool, timeout: Duration) -> io::Result<()> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly aligned `#[repr(C)]`
    // values matching `struct pollfd` and `struct timespec` on 64-bit
    // Linux; `nfds` is 1, matching the single descriptor passed; a null
    // signal mask is allowed and leaves the mask unchanged. `fd` is the
    // open descriptor of a socket the caller owns for the whole call.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_responses() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(2500, 2500.0), 1_000_000_000);
        assert_eq!(due_ns(3, 3.0), 1_000_000_000);
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(10);
        // Sent 5 ms late, answered 1 ms after sending: 6 ms from due.
        let done = t0 + Duration::from_millis(16);
        assert_eq!(latency_from_due(due, done), Duration::from_millis(6));
        // An answer can never be earlier than its due time.
        assert_eq!(latency_from_due(due, t0), Duration::ZERO);
    }

    #[test]
    fn response_heads_parse() {
        let wire = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        assert_eq!(parse_head(wire).unwrap(), Some((200, wire.len() - 2, 2)));
        assert_eq!(parse_head(b"HTTP/1.0 200 OK\r\n").unwrap(), None);
        assert!(parse_head(b"HTTP/1.0 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn epoch_is_read_from_flat_json() {
        assert_eq!(
            json_u64("{\"status\":\"ok\",\"epoch\":12,\"age_s\":1}", "epoch"),
            Some(12)
        );
        assert_eq!(json_u64("{}", "epoch"), None);
    }
}
