//! The two load loops, both on the calling thread and one connection.
//!
//! * [`closed_loop`]: the next request goes out as soon as the node has
//!   room for it (one blocking caller in process; the credit window over
//!   TCP). A slow node receives less load.
//! * [`open_loop`]: requests are due on a fixed schedule whatever the
//!   node does, and each is timed **from the instant it was due**, so a
//!   stall charges every request queued behind it (no coordinated
//!   omission). The loop blocks in `recv` only while a reply is
//!   outstanding and nothing is due or the window is full.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::node::{Acks, Node, Stream};
use crate::stat;

/// Slices a closed-loop pass is timed in (100k transactions each at
/// full size): the unit `placed_tps` takes its per-slice minimum over.
pub const SEGMENTS: usize = 18;

/// Submits requests `reqs` as fast as replies allow. Returns the
/// seconds each of [`SEGMENTS`] equal slices of the replies took, first
/// send to last reply (WAL synced) in total.
pub fn closed_loop(
    node: &mut Node,
    stream: &Stream,
    acks: &mut Acks,
    reqs: Range<usize>,
) -> Result<Vec<f64>, String> {
    let window = node.window();
    let n = reqs.len();
    let started = Instant::now();
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut segment_started = started;
    let mut next = reqs.start;
    let mut outstanding = 0usize;
    let mut replies = 0usize;
    acks.attempted += n as u64;
    while replies < n {
        while next < reqs.end && outstanding < window {
            node.send(stream, next)?;
            next += 1;
            outstanding += 1;
        }
        node.flush()?;
        node.recv(acks)?;
        outstanding -= 1;
        replies += 1;
        if replies == n {
            node.sync();
        }
        while segments.len() < SEGMENTS && replies >= n * (segments.len() + 1) / SEGMENTS {
            let now = Instant::now();
            segments.push((now - segment_started).as_secs_f64());
            segment_started = now;
        }
    }
    Ok(segments)
}

/// What one open-loop run observed.
pub struct Paced {
    /// Due→reply latency per request, microseconds, ascending.
    pub latency_us: Vec<f64>,
    /// The same latencies in the order the requests were due.
    pub by_due_us: Vec<f64>,
    /// How late the generator issued each request once it was due and
    /// this thread was back from its last wait on the node, ascending.
    pub lag_us: Vec<f64>,
    /// Requests answered per second over the whole run, as a share of
    /// the offered rate; below ~1 the backlog was still growing at the end.
    pub completion_share: f64,
}

impl Paced {
    pub fn p(&self, q: f64) -> f64 {
        stat::quantile(&self.latency_us, q)
    }

    /// The median latency of a typical *quiet* second: the run is cut
    /// into windows of `per_second` requests in due order, and the first
    /// quartile of the windows' medians is taken. On a shared box whole
    /// seconds run slow for reasons outside the program; those windows
    /// fall above the first quartile, while a change to the program
    /// moves every window. Fewer than four windows: the plain median.
    pub fn quiet_second_median(&self, per_second: usize) -> f64 {
        let mut medians: Vec<f64> = self
            .by_due_us
            .chunks_exact(per_second.max(1))
            .map(|window| stat::median(window.to_vec()))
            .collect();
        if medians.len() < 4 {
            return self.p(0.5);
        }
        stat::sort(&mut medians);
        stat::quantile(&medians, 0.25)
    }
}

/// Sleeps most of the way to `until`, then spins: sleeping alone
/// overshoots by tens of microseconds, spinning alone would take a core
/// from the server's threads.
fn wait_until(until: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= until {
            return;
        }
        let left = until - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Issues requests `reqs` at `rate_rps` requests per second.
pub fn open_loop(
    node: &mut Node,
    stream: &Stream,
    acks: &mut Acks,
    reqs: Range<usize>,
    rate_rps: f64,
) -> Result<Paced, String> {
    let window = node.window();
    let n = reqs.len();
    let gap = Duration::from_secs_f64(1.0 / rate_rps);
    let started = Instant::now();
    let due = |i: usize| started + gap.mul_f64(i as f64);
    let mut by_due_us = vec![0.0f64; n];
    let mut replies = 0usize;
    let mut lag_us = Vec::with_capacity(n);
    let mut sent = 0usize;
    let mut outstanding = 0usize;
    // When this thread last came back from a call it had to wait in
    // (`submit_batch` in process, `recv_event` over TCP): it cannot
    // issue while inside one, and that wait is the node's, charged to
    // the requests through their due times. What is left is the
    // generator's own lateness.
    let mut free_at = started;
    let mut unflushed = false;
    acks.attempted += n as u64;
    while replies < n {
        let now = Instant::now();
        if sent < n && outstanding < window && now >= due(sent) {
            let ready = due(sent).max(free_at);
            lag_us.push(now.saturating_duration_since(ready).as_secs_f64() * 1e6);
            node.send(stream, reqs.start + sent)?;
            sent += 1;
            outstanding += 1;
            unflushed = true;
        } else if outstanding > 0 {
            if unflushed {
                node.flush()?;
                unflushed = false;
            }
            let req = node.recv(acks)?;
            let replied = Instant::now();
            outstanding -= 1;
            free_at = replied;
            let due_at = due(req - reqs.start);
            by_due_us[req - reqs.start] =
                replied.saturating_duration_since(due_at).as_secs_f64() * 1e6;
            replies += 1;
        } else {
            wait_until(due(sent));
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut latency_us = by_due_us.clone();
    stat::sort(&mut latency_us);
    stat::sort(&mut lag_us);
    Ok(Paced {
        latency_us,
        by_due_us,
        lag_us,
        completion_share: (n as f64 / elapsed) / rate_rps,
    })
}
