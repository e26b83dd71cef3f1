//! `serve-paced` and `fleet-sharded`: an open-loop generator over two
//! BIN1 connections to an in-process `imc-serve`, or to an in-process
//! `imc-fleet` router over two shard replicas.
//!
//! Each connection has one generator thread that sends on a seeded
//! schedule and waits for the reply. The rates sit far below capacity,
//! so a reply almost always lands before the next send is due; when one
//! does not, the next send goes out late, and its latency still counts
//! from when it was due (the generator's lag is reported), so a stall
//! is charged to every request it delays.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use imc_fleet::{serve_fleet, FleetHandle, FleetPlan, RouterConfig};
use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::Response;
use imc_serve::{serve, Client, ClientConfig, Proto, RetryPolicy, ServeConfig, ServerHandle};
use neural::tensor::Tensor;

use crate::check::{self, DESIGN};
use crate::report::{Span, Tracer};
use crate::stats::{input_pool, process_cpu_s, us, Round, SplitMix};
use crate::RunLog;

/// Generator threads, each with its own connection.
pub const CONNS: usize = 2;
/// Distinct inputs per run.
const POOL: usize = 64;
/// Sends per connection per round.
const PER_CONN_ROUND: usize = 50;
/// Head start between a round's barrier and its first due time.
const SLACK: Duration = Duration::from_millis(1);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `imc-serve` node: admission queue, batcher, bank workers.
    Serve,
    /// An `imc-fleet` router scattering `Partial`s over two shard
    /// replicas; partials bypass the queue and batcher.
    Fleet,
}

impl Kind {
    /// Offered load across both connections (requests per second).
    pub fn rate(self) -> f64 {
        match self {
            Self::Serve => 400.0,
            Self::Fleet => 300.0,
        }
    }
}

/// A running target plus the generator's connections and oracle.
pub struct Paced {
    pub kind: Kind,
    pub servers: Vec<ServerHandle>,
    router: Option<FleetHandle>,
    pub clients: Vec<Client>,
    pool: Vec<Vec<f32>>,
    oracle: Vec<Vec<f32>>,
}

fn bin_client() -> ClientConfig {
    ClientConfig {
        proto: Proto::Bin,
        request_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    }
}

/// Connects a BIN1 client with request timeouts.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(addr, bin_client()).map_err(|e| format!("connect {addr}: {e}"))
}

/// Starts the target, precomputes the single-node `QNetwork::forward`
/// oracle for every pool input, connects the generator and warms every
/// connection with a few closed-loop requests.
pub fn setup(kind: Kind, seed: u64) -> Result<Paced, String> {
    let bind = |model: ServeModel| {
        serve("127.0.0.1:0", Arc::new(model), &ServeConfig::default())
            .map_err(|e| format!("bind imc-serve: {e}"))
    };
    let (servers, router, addr) = match kind {
        Kind::Serve => {
            let s = bind(ServeModel::synthetic(DESIGN, DEFAULT_SEED))?;
            let addr = s.addr();
            (vec![s], None, addr)
        }
        Kind::Fleet => {
            let mut servers = Vec::new();
            for i in 0..2 {
                servers.push(bind(ServeModel::synthetic_shard(
                    DESIGN,
                    DEFAULT_SEED,
                    i,
                    2,
                )?)?);
            }
            let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
            let plan = FleetPlan::synthetic(DESIGN, DEFAULT_SEED, 2)?;
            let cfg = RouterConfig {
                client: bin_client(),
                retry: RetryPolicy {
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(10),
                    ..RetryPolicy::default()
                },
                ..RouterConfig::default()
            };
            let (router, admission) = serve_fleet("127.0.0.1:0", plan, &addrs, cfg)
                .map_err(|e| format!("bind imc-fleet: {e}"))?;
            if !admission.is_empty() {
                return Err(format!("fleet admission failed: {admission:?}"));
            }
            let addr = router.addr();
            (servers, Some(router), addr)
        }
    };
    let single = ServeModel::synthetic(DESIGN, DEFAULT_SEED);
    let pool = input_pool(seed, POOL, MNIST_FEATURES);
    let oracle = pool
        .iter()
        .map(|x| {
            let t = Tensor::from_vec(&[1, MNIST_FEATURES], x.clone());
            single.network().forward(&t).data().to_vec()
        })
        .collect();
    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut c = connect(addr)?;
        for (i, x) in pool.iter().take(16).enumerate() {
            c.infer(i as u64, x.clone())
                .map_err(|e| format!("warm-up request: {e}"))?;
        }
        clients.push(c);
    }
    Ok(Paced {
        kind,
        servers,
        router,
        clients,
        pool,
        oracle,
    })
}

/// Closes the connections, then stops the router and every server.
pub fn teardown(p: Paced) {
    drop(p.clients);
    if let Some(r) = p.router {
        r.shutdown();
    }
    for s in p.servers {
        s.shutdown_flag().trigger();
        s.join();
    }
}

/// One connection's seeded send schedule, identical in every round:
/// due offsets from the round start (intervals uniform in 0.5–1.5× the
/// mean) and the pool input of each send.
struct Schedule {
    due: Vec<Duration>,
    input: Vec<usize>,
}

fn schedule(seed: u64, conn: usize, rate_per_conn: f64) -> Schedule {
    let mut rng = SplitMix::new(seed ^ 0x5C4E_D01E ^ ((conn as u64) << 56));
    let mean = 1.0 / rate_per_conn;
    let mut t = 0.0;
    let mut due = Vec::with_capacity(PER_CONN_ROUND);
    let mut input = Vec::with_capacity(PER_CONN_ROUND);
    for _ in 0..PER_CONN_ROUND {
        due.push(Duration::from_secs_f64(t));
        input.push((rng.next_u64() % POOL as u64) as usize);
        t += mean * (0.5 + rng.unit_f64());
    }
    Schedule { due, input }
}

/// Latency (from due), generator lag (send − due) and round trip
/// (reply − send) of every operation, in microseconds.
#[derive(Default)]
pub struct GenStats {
    pub lag_us: Vec<f64>,
    pub rtt_us: Vec<f64>,
}

struct ConnRound {
    ok_lat_us: Vec<f64>,
    failed: usize,
}

/// Runs `floor(seconds / round span)` whole rounds (at least two): the
/// count depends only on the schedule, so every run of a seed attempts
/// the same operations. With `trace`, every second round records spans.
pub fn run(
    p: &mut Paced,
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> (RunLog, GenStats, Vec<Span>) {
    let per_conn_rate = p.kind.rate() / CONNS as f64;
    let schedules: Vec<Schedule> = (0..CONNS)
        .map(|c| schedule(seed, c, per_conn_rate))
        .collect();
    let span_s = schedules
        .iter()
        .map(|s| s.due.last().expect("non-empty schedule").as_secs_f64())
        .fold(0.0, f64::max)
        + 1.0 / per_conn_rate;
    let rounds = ((seconds / span_s).floor() as usize).max(2);
    let barrier = Barrier::new(CONNS + 1);
    let (pool, oracle) = (&p.pool, &p.oracle);
    let mut log = RunLog::default();
    let mut gen = GenStats::default();
    let mut spans = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = p
            .clients
            .iter_mut()
            .zip(&schedules)
            .enumerate()
            .map(|(c, (client, sched))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut tracer = Tracer::new(origin, c as u32 + 1, false);
                    let mut out = Vec::with_capacity(rounds);
                    let mut g = GenStats::default();
                    let mut replies = Vec::with_capacity(PER_CONN_ROUND);
                    for r in 0..rounds {
                        tracer.enabled = trace && r % 2 == 1;
                        replies.clear();
                        barrier.wait();
                        let base = Instant::now() + SLACK;
                        for (i, (&due, &input)) in sched.due.iter().zip(&sched.input).enumerate() {
                            let due = base + due;
                            let now = Instant::now();
                            if due > now {
                                thread::sleep(due - now);
                            }
                            let sent = Instant::now();
                            let id = ((r * PER_CONN_ROUND + i) * CONNS + c) as u64;
                            let resp = tracer
                                .span("client.infer", id, || client.infer(id, pool[input].clone()));
                            let done = Instant::now();
                            replies.push((id, input, due, sent, done, resp));
                        }
                        barrier.wait();
                        // Verification runs after the round's clocks stop.
                        let mut cr = ConnRound {
                            ok_lat_us: Vec::with_capacity(PER_CONN_ROUND),
                            failed: 0,
                        };
                        let mut reconnect = false;
                        for (id, input, due, sent, done, resp) in replies.drain(..) {
                            g.lag_us.push(us(sent - due));
                            g.rtt_us.push(us(done - sent));
                            let ok = match &resp {
                                Ok(Response::Output(o)) => {
                                    o.id == id && check::same_bits(&o.logits, &oracle[input])
                                }
                                Ok(_) => false,
                                Err(_) => {
                                    reconnect = true;
                                    false
                                }
                            };
                            if ok {
                                cr.ok_lat_us.push(us(done - due));
                            } else {
                                cr.failed += 1;
                            }
                        }
                        if reconnect && client.reconnect().is_err() {
                            eprintln!("imcbench: connection {c} could not reconnect");
                        }
                        out.push(cr);
                    }
                    (out, g, tracer.spans)
                })
            })
            .collect();
        let mut stamps = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            barrier.wait();
            let (cpu0, t0) = (process_cpu_s(), Instant::now());
            barrier.wait();
            stamps.push((t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0));
        }
        let mut per_conn = Vec::with_capacity(CONNS);
        for h in handles {
            let (out, g, sp) = h.join().expect("generator thread panicked");
            per_conn.push(out);
            gen.lag_us.extend(g.lag_us);
            gen.rtt_us.extend(g.rtt_us);
            spans.extend(sp);
        }
        for (r, &(wall_s, cpu_s)) in stamps.iter().enumerate() {
            let mut lat = Vec::with_capacity(CONNS * PER_CONN_ROUND);
            let mut failed = 0;
            for conn in &mut per_conn {
                lat.append(&mut conn[r].ok_lat_us);
                failed += conn[r].failed;
            }
            let ops = CONNS * PER_CONN_ROUND;
            let round = Round {
                ops,
                work: ops as f64,
                wall_s,
                cpu_s,
                lat_us: lat,
            };
            log.push(round, failed, trace && r % 2 == 1);
        }
    });
    (log, gen, spans)
}
