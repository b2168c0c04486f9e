//! The load generator: one TCP connection driven by one thread, in three
//! shapes — a closed loop with a fixed pipeline window, one request
//! outstanding at a time, and an open loop on a Poisson schedule timed
//! from each request's intended send time.

use crate::util::{Rng, Slices};
use crate::workload::Plan;
use nnq_serve::protocol::{write_frame, MAX_RESPONSE_FRAME};
use nnq_serve::{Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The longest a response may take before the run is declared stalled.
const STALL: Duration = Duration::from_secs(10);

/// Answers kept per phase where the index changes while it is served: a
/// fixed number, so the client's memory does not grow with throughput,
/// and every phase of the run is checked.
const KEEP_PER_PHASE: usize = 1000;

fn stalled() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "server stalled")
}

/// One served answer, kept for the check after the run.
pub struct Answer {
    pub id: u64,
    pub logical_reads: u64,
    /// Range of this answer's rows in [`Log::hits`].
    pub start: usize,
    pub len: usize,
}

/// Which answers a [`Log`] keeps.
enum Keep {
    /// The index does not change while it is served, so every answer to
    /// one request must be the same: the first answer per stream position
    /// is kept (its index in `answers`, `usize::MAX` for none yet) and
    /// each later one is compared with it on arrival.
    FirstPerRequest(Vec<usize>),
    /// The first answers of each phase; how many more this phase keeps.
    PerPhase(usize),
}

/// Client-side tally of everything sent and received, and the answers
/// kept for the check after the run. Either way the number kept does not
/// depend on throughput.
pub struct Log {
    pub sent: u64,
    pub ok: u64,
    pub rejected: u64,
    pub errors: u64,
    pub answers: Vec<Answer>,
    /// `(record, dist_sq bits)` rows of every kept answer, back to back.
    pub hits: Vec<(u64, u64)>,
    keep: Keep,
    /// Answers that differed from the first answer to the same request.
    pub unstable: u64,
}

impl Log {
    /// `changing`: the index changes while it is served.
    pub fn new(stream_len: usize, changing: bool) -> Self {
        Self {
            sent: 0,
            ok: 0,
            rejected: 0,
            errors: 0,
            answers: Vec::new(),
            hits: Vec::new(),
            keep: if changing {
                Keep::PerPhase(0)
            } else {
                Keep::FirstPerRequest(vec![usize::MAX; stream_len])
            },
            unstable: 0,
        }
    }

    fn new_phase(&mut self) {
        if let Keep::PerPhase(left) = &mut self.keep {
            *left = KEEP_PER_PHASE;
        }
    }

    /// Records one response; returns its request id.
    fn record(&mut self, resp: Response) -> io::Result<u64> {
        match resp {
            Response::Ok {
                id,
                logical_reads,
                hits,
            } => {
                self.ok += 1;
                match &mut self.keep {
                    Keep::FirstPerRequest(first) => {
                        let pos = (id % first.len() as u64) as usize;
                        if let Some(a) = self.answers.get(first[pos]) {
                            let rows = &self.hits[a.start..a.start + a.len];
                            let same = a.logical_reads == logical_reads
                                && rows.len() == hits.len()
                                && rows
                                    .iter()
                                    .zip(&hits)
                                    .all(|(r, h)| *r == (h.record, h.dist_sq.to_bits()));
                            self.unstable += u64::from(!same);
                            return Ok(id);
                        }
                        first[pos] = self.answers.len();
                    }
                    Keep::PerPhase(0) => return Ok(id),
                    Keep::PerPhase(left) => *left -= 1,
                }
                let start = self.hits.len();
                self.hits
                    .extend(hits.iter().map(|h| (h.record, h.dist_sq.to_bits())));
                self.answers.push(Answer {
                    id,
                    logical_reads,
                    start,
                    len: hits.len(),
                });
                Ok(id)
            }
            Response::Rejected { id, .. } => {
                self.rejected += 1;
                Ok(id)
            }
            Response::Error { id, message } => {
                eprintln!("request {id} failed: {message}");
                self.errors += 1;
                Ok(id)
            }
            other => Err(io::Error::other(format!("unexpected response {other:?}"))),
        }
    }
}

/// A connection with an incremental frame parser, so a read that comes
/// back early never tears a frame. It is either blocking, with reads that
/// give up after [`STALL`], or spinning: non-blocking, polled without
/// sleeping, so neither a timer nor a wake-up adds to what it measures.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    out: Vec<u8>,
    spin: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(STALL))?;
        stream.set_write_timeout(Some(STALL))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            chunk: vec![0; 1 << 14],
            out: Vec::new(),
            spin: false,
        })
    }

    pub fn set_spin(&mut self, spin: bool) -> io::Result<()> {
        if spin != self.spin {
            self.stream.set_nonblocking(spin)?;
            self.spin = spin;
        }
        Ok(())
    }

    /// Whether a failed read or write may be retried: always after an
    /// interrupt, and after "not yet" on a spinning connection. On a
    /// blocking one "not yet" means [`STALL`] ran out.
    fn retry(&self, e: io::Error) -> io::Result<()> {
        match e.kind() {
            io::ErrorKind::Interrupted => Ok(()),
            io::ErrorKind::WouldBlock if self.spin => Ok(()),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Err(stalled()),
            _ => Err(e),
        }
    }

    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.out.clear();
        write_frame(&mut self.out, &req.encode())?;
        let mut at = 0;
        while at < self.out.len() {
            match self.stream.write(&self.out[at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => at += n,
                Err(e) => self.retry(e)?,
            }
        }
        Ok(())
    }

    fn take_frame(&mut self) -> io::Result<Option<Response>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RESPONSE_FRAME {
            return Err(io::Error::other(format!("response frame of {len} bytes")));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let resp = Response::decode(&self.buf[4..4 + len]).map_err(io::Error::other)?;
        self.buf.drain(..4 + len);
        Ok(Some(resp))
    }

    /// The next response. A spinning connection gives up (`None`) once
    /// `deadline` has passed; a blocking one waits for it, and fails after
    /// [`STALL`] without data.
    pub fn recv(&mut self, deadline: Instant) -> io::Result<Option<Response>> {
        loop {
            if let Some(resp) = self.take_frame()? {
                return Ok(Some(resp));
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) => {
                    self.retry(e)?;
                    if self.spin && Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// The next response; no response within [`STALL`] is an error.
    pub fn recv_blocking(&mut self) -> io::Result<Response> {
        self.recv(Instant::now() + STALL)?.ok_or_else(stalled)
    }
}

/// Drives one connection through the served phases of a run.
pub struct Load<'a> {
    conn: Conn,
    plan: &'a Plan,
    next_id: u64,
    pub log: Log,
}

/// What the open-loop phase measured.
#[derive(Default)]
pub struct OpenLoop {
    /// Latency of each answered request from its intended send time, µs.
    pub lat_us: Vec<f64>,
    /// How late each request was actually sent, µs.
    pub late_us: Vec<f64>,
}

impl<'a> Load<'a> {
    /// `changing`: the index changes while it is served.
    pub fn new(addr: SocketAddr, plan: &'a Plan, changing: bool) -> io::Result<Self> {
        Ok(Self {
            conn: Conn::connect(addr)?,
            plan,
            next_id: 0,
            log: Log::new(plan.stream.len(), changing),
        })
    }

    fn send_next(&mut self) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.conn.send(&self.plan.request(id))?;
        self.log.sent += 1;
        Ok(id)
    }

    /// Closed loop, blocking: keeps `window` requests outstanding for
    /// `dur`, then drains. Returns the completion rate (1/s) of each whole
    /// `slice`-long sub-window.
    pub fn closed_loop(
        &mut self,
        window: usize,
        dur: Duration,
        slice: Duration,
    ) -> io::Result<Vec<f64>> {
        self.conn.set_spin(false)?;
        self.log.new_phase();
        let start = Instant::now();
        let mut slices = Slices::new(start, dur, slice);
        let end = start + dur;
        let mut outstanding = 0usize;
        while outstanding < window {
            self.send_next()?;
            outstanding += 1;
        }
        while outstanding > 0 {
            let resp = self.conn.recv_blocking()?;
            let now = Instant::now();
            self.log.record(resp)?;
            outstanding -= 1;
            if now < end {
                slices.add(now, 1);
                self.send_next()?;
                outstanding += 1;
            }
        }
        Ok(slices.rates())
    }

    /// One request outstanding at a time for `dur`, spinning; returns each
    /// round trip in µs.
    pub fn round_trips(&mut self, dur: Duration) -> io::Result<Vec<f64>> {
        self.conn.set_spin(true)?;
        self.log.new_phase();
        let end = Instant::now() + dur;
        let mut rtts = Vec::new();
        while Instant::now() < end {
            let t0 = Instant::now();
            self.send_next()?;
            let resp = self.conn.recv_blocking()?;
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            self.log.record(resp)?;
        }
        Ok(rtts)
    }

    /// Open loop, spinning: Poisson arrivals at `rate` per second for
    /// `dur`, sent whether or not earlier requests were answered. Latency
    /// runs from the intended send time, so a stall shows as latency of
    /// the requests behind it instead of pausing the load.
    pub fn open_loop(&mut self, rate: f64, dur: Duration, rng: &mut Rng) -> io::Result<OpenLoop> {
        self.conn.set_spin(true)?;
        self.log.new_phase();
        let n = (rate * dur.as_secs_f64()).round().max(1.0) as usize;
        let base = self.next_id;
        let mut at = Instant::now() + Duration::from_millis(2);
        let intended: Vec<Instant> = (0..n)
            .map(|_| {
                at += rng.exp_gap(rate);
                at
            })
            .collect();
        let mut lat_us = Vec::with_capacity(n);
        let mut late_us = Vec::with_capacity(n);
        let mut next = 0usize;
        let mut answered = 0usize;
        while answered < n {
            let now = Instant::now();
            while next < n && intended[next] <= now {
                self.send_next()?;
                late_us.push(Instant::now().duration_since(intended[next]).as_secs_f64() * 1e6);
                next += 1;
            }
            let deadline = match intended.get(next) {
                Some(&due) => due,
                None => Instant::now() + STALL,
            };
            match self.conn.recv(deadline)? {
                Some(resp) => {
                    let now = Instant::now();
                    let ok = matches!(resp, Response::Ok { .. });
                    let id = self.log.record(resp)?;
                    let i = id
                        .checked_sub(base)
                        .filter(|&i| (i as usize) < n)
                        .ok_or_else(|| io::Error::other(format!("response to unknown id {id}")))?
                        as usize;
                    if ok {
                        lat_us.push(now.duration_since(intended[i]).as_secs_f64() * 1e6);
                    }
                    answered += 1;
                }
                None if next >= n => return Err(stalled()),
                None => {}
            }
        }
        Ok(OpenLoop { lat_us, late_us })
    }
}
