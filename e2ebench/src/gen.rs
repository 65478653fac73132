//! The open-loop, pipelined load generator.
//!
//! Arrivals follow a seeded Poisson schedule fixed before the first send,
//! so a slow server never slows the offered load (no coordinated
//! omission); every latency counts from the request's *due* time. Each
//! connection has one sender thread that writes pre-encoded frames on
//! schedule and one receiver thread that reads replies, so up to the
//! server's `max_inflight_per_conn` requests are pipelined per connection.
//! PVSR answers each connection in request order, which is how a reply is
//! matched to its request. `pv_serve::loadgen` keeps one request in flight
//! per lane, so its batches can never exceed its lane count; this
//! generator can fill the server's batches from a single connection.

use pv_serve::protocol::{decode_response, read_frame};
use pv_serve::Status;
use pv_tensor::Rng;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One scheduled request: when it is due (ns after the phase starts) and
/// which `(model, input)` pair it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Due time, ns from the start of the phase.
    pub due_ns: u64,
    /// Index into the served model list.
    pub model: usize,
    /// Index into that model's input pool.
    pub input: usize,
}

/// Draws `count` Poisson arrivals at `rate` per second, each naming a
/// uniformly chosen model and input.
pub fn poisson_plan(
    rate: f64,
    count: usize,
    n_models: usize,
    n_inputs: usize,
    rng: &mut Rng,
) -> Vec<Planned> {
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            // 1 - U lies in (0, 1], so the logarithm is finite
            t += -(1.0 - rng.uniform()).ln() / rate;
            Planned {
                due_ns: (t * 1e9) as u64,
                model: rng.below(n_models),
                input: rng.below(n_inputs),
            }
        })
        .collect()
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served, and the logits equal the oracle's bit for bit.
    Ok,
    /// Refused with an explicit `Busy` reply.
    Busy,
    /// Served, but the logits differ from the oracle's.
    Mismatch,
    /// Any other status, or a transport or framing error.
    Failed,
}

/// The measured life of one request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// The schedule entry.
    pub plan: Planned,
    /// When the frame was handed to the socket, ns from phase start.
    pub sent_ns: u64,
    /// When the reply frame was read, ns from phase start.
    pub done_ns: u64,
    /// Result of the output check.
    pub outcome: Outcome,
    /// The server's batch size for this request (0 when not served).
    pub batch: u32,
}

impl Record {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.plan.due_ns) as f64 / 1e6
    }

    /// How late the generator sent this request, ms.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.plan.due_ns) as f64 / 1e6
    }
}

/// What the generator drives: a server address, the pre-encoded request
/// frames `frames[model][input]`, and the oracle's logits as raw bits
/// `expected[model][input]`.
pub struct Target<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Pre-encoded PVSR request frames, length prefix included.
    pub frames: &'a [Vec<Vec<u8>>],
    /// Oracle logits per `(model, input)` as `f32::to_bits`.
    pub expected: &'a [Vec<Vec<u32>>],
    /// Pipelining depth per connection (the server's
    /// `max_inflight_per_conn`).
    pub max_inflight: usize,
}

/// Connections the generator opens: each takes two threads, and the
/// generator uses no more threads than the machine has cores (at least
/// one connection).
pub fn connections() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 2).max(1)
}

/// Compares a decoded reply against the oracle.
pub fn check_reply(body: &[u8], expected: &[u32]) -> (Outcome, u32) {
    match decode_response(body) {
        Ok(resp) => match (resp.status, resp.output) {
            (Status::Ok, Some(out)) => {
                let same = out.len() == expected.len()
                    && out
                        .data()
                        .iter()
                        .zip(expected)
                        .all(|(a, &b)| a.to_bits() == b);
                let outcome = if same { Outcome::Ok } else { Outcome::Mismatch };
                (outcome, resp.batch_size)
            }
            (Status::Busy, _) => (Outcome::Busy, 0),
            _ => (Outcome::Failed, 0),
        },
        Err(_) => (Outcome::Failed, 0),
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs one phase: sends `plan` on schedule over [`connections`]
/// connections and returns one record per planned request, in plan order.
pub fn run(target: &Target<'_>, plan: &[Planned]) -> Vec<Record> {
    let conns = connections();
    let t0 = Instant::now();
    let mut out: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..plan.len()).step_by(conns).collect();
                s.spawn(move || run_connection(target, plan, &mine, t0))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator connection thread"))
            .collect()
    });
    out.sort_by_key(|r| (r.plan.due_ns, r.sent_ns));
    out
}

fn failed(plan: Planned, at_ns: u64) -> Record {
    Record {
        plan,
        sent_ns: at_ns,
        done_ns: at_ns,
        outcome: Outcome::Failed,
        batch: 0,
    }
}

/// One connection: a sender thread on the schedule and a receiver thread
/// (this one) matching in-order replies to requests.
fn run_connection(
    target: &Target<'_>,
    plan: &[Planned],
    mine: &[usize],
    t0: Instant,
) -> Vec<Record> {
    let mut out = Vec::with_capacity(mine.len());
    let stream = match TcpStream::connect(target.addr) {
        Ok(s) => s,
        Err(_) => {
            return mine
                .iter()
                .map(|&i| failed(plan[i], ns_since(t0)))
                .collect();
        }
    };
    let io_timeout = Some(Duration::from_secs(30));
    let setup = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(io_timeout))
        .and_then(|()| stream.set_write_timeout(io_timeout))
        .and_then(|()| stream.try_clone());
    let mut writer = match setup {
        Ok(w) => w,
        Err(_) => {
            return mine
                .iter()
                .map(|&i| failed(plan[i], ns_since(t0)))
                .collect()
        }
    };
    let completed = AtomicUsize::new(0);
    let dead = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    std::thread::scope(|s| {
        let completed = &completed;
        let dead = &dead;
        s.spawn(move || {
            for (sent, &i) in mine.iter().enumerate() {
                let p = plan[i];
                let now = ns_since(t0);
                if p.due_ns > now {
                    std::thread::sleep(Duration::from_nanos(p.due_ns - now));
                }
                while sent - completed.load(Ordering::Acquire) >= target.max_inflight
                    && !dead.load(Ordering::Acquire)
                {
                    std::thread::sleep(Duration::from_micros(20));
                }
                // announce the request before writing it, so the receiver
                // is already waiting when the reply lands
                let sent_ns = ns_since(t0);
                if tx.send((i, sent_ns)).is_err() {
                    break;
                }
                let frame = &target.frames[p.model][p.input];
                if dead.load(Ordering::Acquire) || writer.write_all(frame).is_err() {
                    dead.store(true, Ordering::Release);
                }
            }
        });
        let mut reader = BufReader::with_capacity(1 << 16, &stream);
        for (i, sent_ns) in rx {
            let p = plan[i];
            let record = if !dead.load(Ordering::Acquire) {
                match read_frame(&mut reader) {
                    Ok(Some(body)) => {
                        let done_ns = ns_since(t0);
                        let (outcome, batch) =
                            check_reply(&body, &target.expected[p.model][p.input]);
                        Record {
                            plan: p,
                            sent_ns,
                            done_ns,
                            outcome,
                            batch,
                        }
                    }
                    _ => {
                        dead.store(true, Ordering::Release);
                        failed(p, sent_ns)
                    }
                }
            } else {
                failed(p, sent_ns)
            };
            out.push(record);
            completed.fetch_add(1, Ordering::Release);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_serve::protocol::encode_response;
    use pv_serve::Response;
    use pv_tensor::Tensor;

    #[test]
    fn poisson_plan_is_seeded_and_hits_the_rate() {
        let a = poisson_plan(1000.0, 5000, 3, 8, &mut Rng::new(7));
        let b = poisson_plan(1000.0, 5000, 3, 8, &mut Rng::new(7));
        assert_eq!(a, b);
        let span_s = a.last().map_or(0, |p| p.due_ns) as f64 / 1e9;
        assert!((span_s - 5.0).abs() < 0.4, "{span_s}");
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|p| p.model < 3 && p.input < 8));
    }

    fn frame(resp: &Response) -> Vec<u8> {
        // encode_response includes the length prefix; the checker sees
        // the body that read_frame returns
        let full = encode_response(resp).expect("encodes");
        full[4..].to_vec()
    }

    #[test]
    fn reply_check_flags_a_wrong_answer() {
        let logits = Tensor::from_vec(vec![3], vec![0.5, -1.0, 2.0]);
        let bits: Vec<u32> = logits.data().iter().map(|x| x.to_bits()).collect();
        let good = frame(&Response::ok(logits.clone(), 4));
        assert_eq!(check_reply(&good, &bits), (Outcome::Ok, 4));

        let wrong = Tensor::from_vec(
            vec![3],
            vec![0.5, -1.0, f32::from_bits(2.0f32.to_bits() + 1)],
        );
        assert_eq!(
            check_reply(&frame(&Response::ok(wrong, 4)), &bits).0,
            Outcome::Mismatch
        );

        let short = Tensor::from_vec(vec![2], vec![0.5, -1.0]);
        assert_eq!(
            check_reply(&frame(&Response::ok(short, 1)), &bits).0,
            Outcome::Mismatch
        );

        let busy = frame(&Response::failure(Status::Busy, "queue full"));
        assert_eq!(check_reply(&busy, &bits).0, Outcome::Busy);
        let internal = frame(&Response::failure(Status::Internal, "fault"));
        assert_eq!(check_reply(&internal, &bits).0, Outcome::Failed);
        assert_eq!(
            check_reply(&good[..good.len() - 1], &bits).0,
            Outcome::Failed
        );
    }
}
